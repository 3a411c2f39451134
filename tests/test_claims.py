from dataclasses import fields, replace

import pytest

from superinv.claims import CATALOG, ClaimOptions, KNOWN_CLAIMS, run_claim

ERRATA_TARGETS = {"T3.6", "T3.8", "T5.1", "L7.1", "T7.2", "T7.3"}


def test_unknown_claim():
    with pytest.raises(KeyError):
        run_claim("T9.9")


def test_constructive_alias():
    records = run_claim("T5.2(constructive)")
    assert all(r.status == "pass" for r in records)


@pytest.mark.parametrize("cid", [c for c in KNOWN_CLAIMS if c not in {"T7.3"}])
def test_default_claims_pass(cid):
    records = run_claim(cid)
    assert records
    assert all(r.status in ("pass", "errata") for r in records)
    assert any(r.status == "pass" for r in records)
    if cid in ERRATA_TARGETS:
        assert any(r.status == "errata" for r in records)


@pytest.mark.slow
def test_t73_claim():
    records = run_claim("T7.3")
    assert all(r.status in ("pass", "errata") for r in records)
    assert any(r.status == "errata" for r in records)


@pytest.mark.parametrize("cid", KNOWN_CLAIMS)
def test_reads_lists_what_the_claim_reads(cid):
    """At its defaults, the claim's premise and runner read exactly the
    options that `Claim.reads` lists: the flags `verify` accepts."""
    names = {f.name for f in fields(ClaimOptions)}
    read = set()

    class Recording(ClaimOptions):
        def __getattribute__(self, name):
            if name in names:
                read.add(name)
            return super().__getattribute__(name)

    claim = CATALOG[cid]
    opts = Recording(**{name: getattr(claim.defaults, name) for name in names})
    claim.premise(opts)
    assert claim.run(opts)
    assert read == set(claim.reads)
    assert set(claim.least) <= read


@pytest.mark.parametrize(
    "cid, tables", [("T2.1", 2), ("T3.6", 2), ("T4.3", 2), ("T5.2", 2), ("T6.2", 2), ("T7.3", 9)]
)
def test_a_family_builds_each_action_table_once(monkeypatch, cid, tables):
    """A cold run builds the action table of the family's generators, and
    of its basis, once per algebra (`AlgebraFamily.table`): every degree of
    the oracle and every invariance check reuses it.  T7.3 also has its
    tower's algebra, and `spe_ppf_polynomials` builds one table per route
    factor: 3 tables of the family and 6 of factors."""
    from superinv import generators, liealgebras

    built = []
    real = liealgebras.action_table

    def counting(elements, algebra):
        built.append(algebra)
        return real(elements, algebra)

    for module in (generators, liealgebras):
        monkeypatch.setattr(module, "action_table", counting)
    assert run_claim(cid)
    assert len(built) == tables


def test_record_serialization():
    records = run_claim("L7.1", ClaimOptions(n=2))
    for r in records:
        d = r.as_dict()
        assert d["id"] and d["claim_ref"] == "L7.1"
        assert d["status"] in ("pass", "fail", "errata")


def test_t21_custom_options():
    records = run_claim("T2.1", ClaimOptions(dims=(1, 0), pqkl=(1, 0, 1, 0), max_degree=3))
    assert all(r.status == "pass" for r in records)
    dims = {r.id: r.dims for r in records}
    assert dims["T2.1:gl(1, 0):deg2"] == {"oracle": 1, "generated": 1}


def test_no_claim_runner_expands_a_symmetrizer(monkeypatch):
    """Every claim at its defaults applies its symmetrizers block by block
    through `permutations.symmetrize`; no runner expands one."""
    from superinv import claims, generators, named_polynomials, permutations, tensors

    def forbidden(*args, **kwargs):
        raise AssertionError("a claim runner expanded a symmetrizer")

    applied = []
    original = permutations.symmetrize

    def counting(t, *args, **kwargs):
        applied.append(t.shape.parts)
        return original(t, *args, **kwargs)

    for module in (claims, generators, named_polynomials, permutations, tensors):
        if hasattr(module, "young_symmetrizer"):
            monkeypatch.setattr(module, "young_symmetrizer", forbidden)
        if hasattr(module, "symmetrize"):
            monkeypatch.setattr(module, "symmetrize", counting)
    for cid in KNOWN_CLAIMS:
        records = run_claim(cid)
        assert records and all(r.status in ("pass", "errata") for r in records), cid
    # the wrappers are live: T4.5 pairs its (4,4) tableau, T7.3 its level tensors
    assert (4, 4) in applied and (2, 2, 2, 2) in applied


def test_t73_builds_no_constructive_tensor(monkeypatch):
    """T7.3 pairs each route's symmetrized seed and acts on the shadows:
    it calls neither `spe_constructive_element` nor `act_on_tensor`."""
    from superinv import claims, generators, tensors

    def forbidden(*args, **kwargs):
        raise AssertionError("T7.3 built a constructive tensor")

    for module in (claims, generators, tensors):
        for name in ("spe_constructive_element", "act_on_tensor"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)
    records = run_claim("T7.3")
    assert records and all(r.status in ("pass", "errata") for r in records)


def test_t73_tower_gap_carries_a_witness(monkeypatch):
    """A tower degree whose generated space is a strict subspace fails with
    a witness, as every other generation record does: withhold the top
    level, over the all-odd tower algebra only."""
    from superinv import claims

    top = claims.CATALOG["T7.3"].defaults.k
    original = claims.spe_ppf_polynomials

    def withheld(algebra, family, k, sign_k):
        if algebra.w_range.even_count == 0 and k == top:
            return []
        return original(algebra, family, k, sign_k)

    monkeypatch.setattr(claims, "spe_ppf_polynomials", withheld)
    records = {r.id: r for r in run_claim("T7.3")}
    # the level-k shadows have degree n(n + k) = 6 at n = 2, k = 1
    record = records["T7.3:spe(2|2):W(0, 2):tower:deg6"]
    assert record.status == "fail"
    assert record.dims["generated"] < record.dims["oracle"]
    assert record.witness
    assert all(r.status != "fail" for rid, r in records.items() if rid != record.id)


@pytest.mark.parametrize("n, k", [(2, 1), (2, 2)])
def test_t73_checks_every_symmetrizer_cap_before_the_first(monkeypatch, n, k):
    """`run_t73` checks the cap of a hand-kept list of tableaux up front, so
    that a cap refusal comes before any work: every tableau the run
    symmetrizes was checked before its first `symmetrize` call."""
    import sys

    from superinv import claims, permutations

    events = []
    real_check, real_symmetrize = claims.check_symmetrizer_cap, permutations.symmetrize

    def check(t):
        events.append(("check", t.rows))
        return real_check(t)

    def symmetrize(t, *args, **kwargs):
        events.append(("symmetrize", t.rows))
        return real_symmetrize(t, *args, **kwargs)

    monkeypatch.setattr(claims, "check_symmetrizer_cap", check)
    for name, module in list(sys.modules.items()):
        if name.startswith("superinv") and getattr(module, "symmetrize", None) is real_symmetrize:
            monkeypatch.setattr(module, "symmetrize", symmetrize)
    run_claim("T7.3", replace(CATALOG["T7.3"].defaults, n=n, k=k))
    first = [kind for kind, _ in events].index("symmetrize")
    checked = {rows for kind, rows in events[:first] if kind == "check"}
    symmetrized = {rows for kind, rows in events if kind == "symmetrize"}
    assert len(symmetrized) == k + 3
    assert symmetrized <= checked


# a record over a family of size 0 checks nothing (ROADMAP open item 2);
# the one such default left, T2.2's, waits for the benchmark change that
# regenerates perfbench/reference.json, which pins every default's records
_SIZE_KEYS = ("relations", "members", "generators", "plus", "minus", "words_compared")


def test_catalog_defaults_have_no_new_vacuous_record():
    vacuous = set()
    for cid in KNOWN_CLAIMS:
        for r in run_claim(cid):
            if any((r.detail or {}).get(key) == 0 for key in _SIZE_KEYS):
                vacuous.add(r.id)
            if r.claim_ref in ("T4.4", "T6.3.1") and r.dims["oracle"] == 0:
                vacuous.add(r.id)
    assert vacuous == {"T2.2:gl(1, 1):U(1, 1):W(1, 1):substitution"}


@pytest.mark.parametrize(
    "cid, wdims",
    [("T4.4", (0, 2)), ("T4.4", (1, 0)), ("T4.4", (1, 1)), ("T6.3.1", (0, 2)), ("T6.3.1", (1, 0))],
)
def test_pfaffian_families_skip_shapes_off_the_w_hook(cid, wdims):
    """Next to shapes that fit the W hook, a shape that misses it would
    hold an empty family; it gets no record instead."""
    records = run_claim(cid, replace(CATALOG[cid].defaults, wdims=wdims))
    assert records
    assert all(r.dims["oracle"] > 0 for r in records)
