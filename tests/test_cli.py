import contextlib
import io
import itertools
import json
import os
import sys
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from superinv.claims import CATALOG, KNOWN_CLAIMS
from superinv.cli import EXIT_CAP, EXIT_CHECK_FAILED, EXIT_OK, EXIT_USAGE, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_tableaux_report(capsys):
    code, out, _ = run_cli(
        capsys, "tableaux", "--shape", "2,1", "--range", "1,1", "--no-timing"
    )
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["timing_ms"] is None
    check = report["checks"][0]
    assert check["dims"]["standard_tableaux"] == 2
    assert check["dims"]["semistandard_sequences"] == 2


def test_tableaux_empty_shape(capsys):
    """A shape with no positive part would enumerate nothing: a usage
    error in one line, no report."""
    for shape in ("0", "0,0"):
        code, out, err = run_cli(capsys, "tableaux", "--shape", shape, "--no-timing")
        assert code == EXIT_USAGE
        assert out == ""
        assert err == f"error: --shape needs a positive part, got {shape}\n"


def test_tableaux_cap_is_checked_before_enumerating(capsys):
    """f^lambda comes from the hook-length formula first: (12,12,12) has
    2,861,142,656,400 standard tableaux and exits 3 at once, as does a
    shape with more cells than the enumerations can recurse through."""
    for shape, what in (("12,12,12", "standard tableaux would need 2861142656400"),
                        ("100000000", "tableau cells would need 100000000")):
        code, out, err = run_cli(capsys, "tableaux", "--shape", shape, "--no-timing")
        assert code == EXIT_CAP
        assert out == ""
        assert err.startswith(f"error: {what}, above the cap") and err.count("\n") == 1


def test_tableaux_semistandard_dimension(capsys):
    code, out, _ = run_cli(
        capsys, "tableaux", "--shape", "2,1", "--range", "2,1", "--no-timing"
    )
    report = json.loads(out)
    # count equals the brute-force filter count for the shape
    from superinv.tableaux import Partition, count_semistandard
    from superinv.alphabet import IndexRange

    assert report["checks"][0]["dims"]["semistandard_sequences"] == count_semistandard(
        Partition((2, 1)), IndexRange(2, 1)
    )


def test_invariants_report(capsys):
    code, out, _ = run_cli(
        capsys,
        "invariants",
        "--family",
        "gl",
        "--dims",
        "1,0",
        "--pqkl",
        "1,0,1,0",
        "--degree",
        "2",
        "--no-timing",
    )
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["checks"][0]["dims"]["oracle"] == 1
    assert report["checks"][0]["basis"] == ["1*x[1,1]*x*[1,1]"]


def test_invariants_cap_exit(capsys):
    code, _, err = run_cli(
        capsys,
        "invariants",
        "--family",
        "gl",
        "--dims",
        "2,1",
        "--pqkl",
        "2,2,2,2",
        "--degree",
        "4",
        "--cap",
        "10",
    )
    assert code == EXIT_CAP
    assert "cap" in err


def test_verify_unknown_claim(capsys):
    code, _, err = run_cli(capsys, "verify", "--theorem", "T9.9")
    assert code == EXIT_USAGE
    assert "unknown claim" in err


def test_verify_pass(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify",
        "--theorem",
        "T2.1",
        "--dims",
        "1,1",
        "--pqkl",
        "1,1,1,1",
        "--max-degree",
        "3",
        "--no-timing",
    )
    assert code == EXIT_OK
    report = json.loads(out)
    assert all(c["status"] == "pass" for c in report["checks"])


def test_verify_errata_does_not_fail(capsys):
    code, out, _ = run_cli(capsys, "verify", "--theorem", "L7.1", "--n", "2", "--no-timing")
    assert code == EXIT_OK
    report = json.loads(out)
    statuses = {c["status"] for c in report["checks"]}
    assert "errata" in statuses and "fail" not in statuses


def test_exit_one_on_failure(capsys, monkeypatch):
    import superinv.cli as cli_module

    def fake_run(key, opts):
        from superinv.claims import CheckRecord

        return [CheckRecord("x", key, "fail")]

    monkeypatch.setattr(cli_module, "run_claim", fake_run)
    code, out, _ = run_cli(capsys, "verify", "--theorem", "T2.1", "--no-timing")
    assert code == EXIT_CHECK_FAILED


def test_csv_projection(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify",
        "--theorem",
        "T2.1",
        "--max-degree",
        "2",
        "--format",
        "csv",
        "--no-timing",
    )
    assert code == EXIT_OK
    lines = [l for l in out.strip().splitlines() if l]
    assert lines[0].startswith("id,claim_ref,status")
    assert len(lines) == 3


def test_report_determinism(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for target in (a, b):
        code, _, _ = run_cli(
            capsys,
            "verify",
            "--theorem",
            "T3.3",
            "--no-timing",
            "--output",
            str(target),
        )
        assert code == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--theorem", "T2.1", "--output", "/nonexistent/dir/x.json"),
        ("tableaux", "--shape", "2", "--output", "/"),
    ],
    ids=["verify-missing-dir", "tableaux-directory"],
)
def test_unwritable_output_is_a_usage_error(capsys, argv):
    """An --output path that cannot be opened exits 2 with one line on
    stderr, naming the path, and no traceback."""
    code, out, err = run_cli(capsys, *argv, "--no-timing")
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith(f"error: cannot write --output {argv[-1]}: ")
    assert err.count("\n") == 1


def test_bad_flag_values(capsys):
    """A malformed value, a flag the command does not take (`verify` reads
    no family: each claim fixes its own; `tableaux` has no oracle to cap),
    a missing required flag or a bad choice exits 2 with no report and one
    line on stderr."""
    for argv in (
        ("tableaux", "--shape", "x,y"),
        ("tableaux", "--shape", "2,1", "--cap", "1"),
        ("verify", "--theorem", "T2.1", "--family", "gl"),
        ("verify",),
        ("verify", "--theorem", "T2.1", "--format", "xml"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, argv


def test_help_still_prints_usage(capsys):
    code, out, err = run_cli(capsys, "verify", "--help")
    assert code == EXIT_OK
    assert out.startswith("usage: superinv verify") and err == ""


def test_closed_pipe_is_not_an_error(monkeypatch):
    """A reader that closes the pipe early (`| head`) costs the rest of the
    report, not a traceback: the run keeps its verdict's exit code."""

    class ClosedPipe:
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def flush(self):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr("sys.stdout", ClosedPipe())
    assert main(["verify", "--theorem", "T2.1", "--no-timing"]) == EXIT_OK
    # the rest of the output, and the flush at exit, go to the null device
    assert sys.stdout.name == os.devnull
    sys.stdout.close()


def test_verify_cap_exit(capsys):
    code, _, err = run_cli(
        capsys,
        "verify",
        "--theorem",
        "T2.2",
        "--udims",
        "2,2",
        "--wdims",
        "2,2",
        "--cap",
        "10",
    )
    assert code == EXIT_CAP
    assert "cap" in err


@pytest.mark.parametrize(
    "claim", ["T2.1", "T2.2", "T3.6", "T4.3", "T4.5", "T5.2", "T6.2", "T6.3.2", "T7.3"]
)
def test_cap_reaches_every_monomial_basis(capsys, claim):
    """Every claim that builds a monomial basis, for the oracle or for a
    relation kernel, runs it under --cap."""
    code, out, err = run_cli(capsys, "verify", "--theorem", claim, "--cap", "1", "--no-timing")
    assert code == EXIT_CAP
    assert out == ""
    assert err.startswith("error: monomial basis would need ")
    assert err.endswith(", above the cap 1\n") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("--theorem", "T7.3", "--n", "1"),
        ("--theorem", "T7.2", "--n", "1"),
        ("--theorem", "L7.1", "--n", "1"),
        ("--theorem", "T7.3", "--k", "0"),
        ("--theorem", "T7.3", "--n", "0"),
        ("--theorem", "T7.2", "--k", "-1"),
        ("--theorem", "T4.3", "--dims", "1,1"),
        ("--theorem", "T6.2", "--dims", "2,1"),
        ("--theorem", "T3.3", "--dims", "0,0"),
        *(
            ("--theorem", claim, "--dims", dims)
            for claim in ("T3.3", "T3.4", "T3.6", "T3.8", "T5.1", "T5.2")
            for dims in ("1,0", "2,0")
        ),
        ("--theorem", "T5.1", "--dims", "0,2"),
        ("--theorem", "T5.2", "--dims", "0,2"),
        *(
            ("--theorem", claim, "--dims", dims)
            for claim in ("T3.3", "T3.4")
            for dims in ("0,1", "0,2")
        ),
        ("--theorem", "T4.3", "--dims", "2,0"),
        ("--theorem", "T4.3", "--dims", "4,0"),
        ("--theorem", "T3.3", "--k", "0"),
        ("--theorem", "T3.4", "--k", "0"),
        ("--theorem", "T3.6", "--k", "0"),
        ("--theorem", "T3.6", "--dims", "1,2"),
        ("--theorem", "T2.1", "--max-degree", "0"),
        ("--theorem", "T4.4", "--max-degree", "1"),
        # a level tableau of T7.3 misses the W hook, so a level family is empty
        *(("--theorem", "T7.3", "--wdims", w) for w in ("0,0", "1,0", "0,1", "1,1", "2,1")),
        ("--theorem", "T7.3", "--n", "3", "--k", "1"),
        # with no W (or, for T2.2, no U) letter every record would be vacuous
        *(
            ("--theorem", claim, "--wdims", "0,0")
            for claim in ("T4.3", "T4.4", "T4.5", "T5.2", "T6.2", "T6.3.1", "T6.3.2", "T2.2")
        ),
        ("--theorem", "T2.2", "--udims", "0,0"),
        # sl(0|0) has no letter to build its diagonal from
        ("--family", "sl", "--dims", "0,0", "--degree", "1"),
        # the column-split tableau of T5.2 misses the W hook: no relative generator
        ("--theorem", "T5.2", "--wdims", "0,1"),
        ("--theorem", "T5.2", "--wdims", "0,2"),
        ("--theorem", "T5.2", "--dims", "2,2"),
        # the relation tableau of T4.5 or T6.3.2 misses the W hook: no relation
        *(
            ("--theorem", claim, "--wdims", w)
            for claim in ("T4.5", "T6.3.2")
            for w in ("0,1", "1,0", "1,1", "1,2")
        ),
        ("--theorem", "T4.5", "--wdims", "0,3"),
        ("--theorem", "T6.3.2", "--wdims", "0,2"),
        ("--theorem", "T4.5", "--dims", "2,2", "--wdims", "2,1"),
        # the row (2) misses the W hook: no scalar product, every family empty
        *(("--theorem", claim, "--wdims", "0,1") for claim in ("T4.3", "T4.4", "T6.2", "T6.3.1")),
    ],
)
def test_verify_out_of_range_options(capsys, argv):
    """Options outside a claim's range, or a family's, are a usage error:
    exit 2, one line on stderr, no traceback and no report."""
    command = "verify" if argv[0] == "--theorem" else "invariants"
    code, out, err = run_cli(capsys, command, *argv, "--no-timing")
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert argv[1] in err and argv[2] in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("verify", "--theorem", "T2.1", "--max-degree", "-1"), "--max-degree"),
        (("verify", "--theorem", "T2.1", "--cap", "-1"), "--cap"),
        (("invariants", "--family", "gl", "--dims", "1,1", "--degree", "-1"), "--degree"),
        (("invariants", "--degree", "2", "--cap", "-1"), "--cap"),
    ],
)
def test_negative_options_are_usage_errors(capsys, argv, flag):
    """A negative --degree, --cap or --max-degree is refused as the options
    are parsed: exit 2, one line naming the option, no report."""
    code, out, err = run_cli(capsys, *argv, "--no-timing")
    assert code == EXIT_USAGE
    assert out == ""
    assert err == f"error: {flag} must be nonnegative, got -1\n"


@pytest.mark.parametrize("dims", ["0,1", "1,0", "0,2", "2,0"])
@pytest.mark.parametrize(
    "claim",
    ["T2.1", "T2.2", "T3.3", "T3.4", "T3.6", "T3.8", "T4.3", "T4.5", "T5.1", "T5.2", "T6.2", "T6.3.2"],
)
def test_verify_edge_dims_keep_exit_contract(capsys, claim, dims):
    """Every claim that reads --dims, at each edge dimension: no exception
    escapes, and the run reports (exit 0/1/3) or is refused in one line
    (exit 2)."""
    code, out, err = run_cli(capsys, "verify", "--theorem", claim, "--dims", dims, "--no-timing")
    assert code in (EXIT_OK, EXIT_CHECK_FAILED, EXIT_USAGE, EXIT_CAP)
    if code == EXIT_USAGE:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    elif code != EXIT_CAP:
        assert json.loads(out)["checks"]


@pytest.mark.parametrize("dims", ["1,0", "3,0", "0,2"])
def test_t43_edge_dims_inside_the_premise_pass(capsys, dims):
    """so(1), so(3) and sp(2) have no even-degree determinant-type
    invariants, so T4.3 runs and passes there."""
    code, out, err = run_cli(capsys, "verify", "--theorem", "T4.3", "--dims", dims, "--no-timing")
    assert code == EXIT_OK
    assert all(c["status"] == "pass" for c in json.loads(out)["checks"])


def test_l71_size_guard_before_expansion(capsys, monkeypatch):
    """L7.1 at n = 7 would expand 2^21 terms: exit 3 before any expansion."""
    import superinv.claims as claims_module

    def fail(n):
        raise AssertionError("yminus_expansion must not run")

    monkeypatch.setattr(claims_module, "yminus_expansion", fail)
    code, out, err = run_cli(capsys, "verify", "--theorem", "L7.1", "--n", "7", "--no-timing")
    assert code == EXIT_CAP
    assert out == ""
    assert err.startswith("error: ") and "cap" in err and err.count("\n") == 1


def _forbid(monkeypatch, modules, name):
    def forbidden(*args, **kwargs):
        raise AssertionError(f"{name} ran before the cap check")

    for module in modules:
        if hasattr(module, name):
            monkeypatch.setattr(module, name, forbidden)


@pytest.mark.parametrize(
    "claim, options, forbidden, message",
    [
        (
            "T2.2",
            ["--dims", "2,1", "--udims", "2,2", "--wdims", "2,2"],
            ("symmetrize", "Z_combination"),
            "monomial basis would need 27008, above the cap 20000",
        ),
        ("T4.5", ["--cap", "40"], "Pf_t", "monomial basis would need 41, above the cap 40"),
        ("T6.3.2", ["--cap", "19"], "PPf_t", "monomial basis would need 20, above the cap 19"),
        (
            "T7.3",
            ["--n", "2", "--k", "3"],
            ("symmetrize", "Z_combination"),
            "symmetrizer terms would need 33177600, above the cap 5000000",
        ),
        (
            "T7.3",
            ["--n", "2", "--k", "2", "--cap", "1"],
            "symmetrize",
            "monomial basis would need 32, above the cap 1",
        ),
        ("T3.6", ["--cap", "1"], "symmetrize", "monomial basis would need 192, above the cap 1"),
        ("T5.2", ["--cap", "1"], "nabla_construct", "monomial basis would need 3, above the cap 1"),
        (
            "T7.3",
            ["--n", "3", "--k", "1", "--wdims", "3,3"],
            ("symmetrize", "Z_combination"),
            "symmetrizer terms would need 17915904, above the cap 5000000",
        ),
    ],
)
def test_caps_checked_before_the_work(capsys, monkeypatch, claim, options, forbidden, message):
    """Exit 3 with the cap's one-line message before any relation is built
    (T2.2, T4.5, T6.3.2), any word is symmetrized or paired (T2.2, T3.6,
    T7.3) or the constructive invariant is built (T5.2): at level -3 T7.3's
    symmetrizer would expand to 33,177,600 terms, after the 460,800 of level
    +3, and the generation claims check every degree their oracle will
    reach."""
    from superinv import claims, generators, named_polynomials, permutations, tensors

    modules = [claims, generators, named_polynomials, permutations, tensors]
    for name in (forbidden,) if isinstance(forbidden, str) else forbidden:
        _forbid(monkeypatch, modules, name)
    code, out, err = run_cli(capsys, "verify", "--theorem", claim, *options, "--no-timing")
    assert code == EXIT_CAP
    assert out == ""
    assert err == f"error: {message}\n"


_PAIR = st.tuples(st.integers(0, 2), st.integers(0, 2))


def _t22_monomials(dims, udims, wdims):
    """The size of the T2.2 relation-degree monomial basis, in closed form."""
    from superinv.alphabet import IndexRange
    from superinv.polynomials import count_monomials_of_degree, make_uw_algebra

    n, m = dims
    source = make_uw_algebra(IndexRange(*udims), IndexRange(*wdims))
    return count_monomials_of_degree(source, (n + 1) * (m + 1))


def _slow(claim, n, k, dims, udims, wdims):
    """Option vectors in these ranges that run for seconds to minutes below
    every cap (measured on a 2-core machine, 6 s limit): T2.2 with more
    than 8 letters in all and a monomial basis within the default cap
    (above it, the run exits 3 before building a relation), the
    split-tableau claims at --dims 2,2 (T3.3 and T3.4 6 to 8 s at --k 1,
    T3.8 4 to 5 s with each operator image built once per word; T3.6
    exits 2 there: at the default --pqkl its split tableaux do not fit
    the u-hook), and T7.2 at --n 3 --k 0 (about 4 s).  With
    the symmetrizers applied block by block, T7.3 at --n 2 --k 2 takes
    0.4 to 0.45 s (it pairs each route's seed and acts on the shadows;
    1.7 to 2.4 s when it paired the constructive tensor), T7.2 at
    --n 2 --k 3 1.4 to 1.6 s, and the split-tableau claims at
    --k 3 and smaller --dims at most 1.6 s (T7.3 at --k 3 exits 3 before
    any symmetrization).  Every other vector finishes within about 2 s."""
    if claim == "T2.2":
        return sum(dims + udims + wdims) > 8 and _t22_monomials(dims, udims, wdims) <= 20_000
    if claim in ("T3.3", "T3.4", "T3.8"):
        return dims == (2, 2)
    return claim == "T7.2" and (n, k) == (3, 0)


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(KNOWN_CLAIMS),
    st.integers(0, 3),
    st.integers(0, 3),
    _PAIR,
    _PAIR,
    _PAIR,
)
def test_verify_random_small_options_keep_exit_contract(claim, n, k, dims, udims, wdims):
    """Small random verify option vectors: no exception escapes, the exit
    code is 0, 1, 2 or 3, a usage error is exactly one line on stderr with
    no report, and a report lists at least one check."""
    assume(not _slow(claim, n, k, dims, udims, wdims))
    argv = ["verify", "--theorem", claim, "--n", str(n), "--k", str(k), "--no-timing"]
    for flag, pair in (("--dims", dims), ("--udims", udims), ("--wdims", wdims)):
        argv += [flag, f"{pair[0]},{pair[1]}"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (EXIT_OK, EXIT_CHECK_FAILED, EXIT_USAGE, EXIT_CAP)
    if code == EXIT_USAGE:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
    elif code != EXIT_CAP:
        assert json.loads(out.getvalue())["checks"]


# ---------------------------------------------------------------------------
# the verdict map: exit code and non-pass records of every small vector

VERDICTS = Path(__file__).parent / "golden" / "verdicts.json"


def _verdict_vectors():
    """Every claim with --dims, then --wdims, over {0,1,2}^2 and the other
    options at the claim's defaults, leaving out the `_slow` vectors."""
    pairs = list(itertools.product(range(3), repeat=2))
    for claim in KNOWN_CLAIMS:
        d = CATALOG[claim].defaults
        for flag, pair in itertools.product(("dims", "wdims"), pairs):
            dims, wdims = (pair, d.wdims) if flag == "dims" else (d.dims, pair)
            if not _slow(claim, d.n, d.k, dims, d.udims, wdims):
                yield claim, f"--{flag}", f"{pair[0]},{pair[1]}"


def verdict_map() -> dict:
    """For each vector, run in process: its exit code and the sorted ids of
    its non-pass records (none when it writes no report)."""
    out = {}
    for argv in _verdict_vectors():
        report = io.StringIO()
        with contextlib.redirect_stdout(report), contextlib.redirect_stderr(io.StringIO()):
            code = main(["verify", "--theorem", *argv, "--no-timing"])
        checks = json.loads(report.getvalue())["checks"] if report.getvalue() else []
        out[" ".join(argv)] = {
            "exit": code,
            "non_pass": sorted(c["id"] for c in checks if c["status"] != "pass"),
        }
    return out


def test_verdict_map_is_unchanged():
    """Every small vector keeps its exit code and its non-pass records
    (about 2 s on a 2-core machine); a vector that fails a check (exit 1)
    names the ROADMAP item that tracks it.  Regenerate with
    `PYTHONPATH=src python tests/test_cli.py`, which keeps those item
    numbers."""
    golden = json.loads(VERDICTS.read_text())
    got = verdict_map()
    verdicts = {
        v: {k: x for k, x in entry.items() if k != "roadmap_item"} for v, entry in golden.items()
    }
    changed = sorted(v for v in got.keys() | verdicts.keys() if got.get(v) != verdicts.get(v))
    assert not changed, changed
    failing = [entry for entry in golden.values() if entry["exit"] == EXIT_CHECK_FAILED]
    assert all(isinstance(entry.get("roadmap_item"), int) for entry in failing)


if __name__ == "__main__":
    old = json.loads(VERDICTS.read_text()) if VERDICTS.exists() else {}
    new = verdict_map()
    for vector, entry in new.items():
        if "roadmap_item" in old.get(vector, {}):
            entry["roadmap_item"] = old[vector]["roadmap_item"]
    VERDICTS.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n")
