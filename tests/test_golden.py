"""Byte-identical reports: `superinv verify --theorem <id> --no-timing` for
every catalog claim must print exactly the report stored under
`tests/golden/<id>.json`.

Regenerate a golden file only when a report change is intended:
`superinv verify --theorem <id> --no-timing > tests/golden/<id>.json`.
Reports at other option vectors sit under `tests/golden/options/`; the
ones too slow for this suite are compared in CI.  `tests/golden/verdicts.json`
is no report: it is the verdict map of `tests/test_cli.py`.
"""

from pathlib import Path

import pytest

from superinv.claims import KNOWN_CLAIMS
from superinv.cli import EXIT_OK, main

GOLDEN = Path(__file__).parent / "golden"


def test_golden_set_covers_the_catalog():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == sorted([*KNOWN_CLAIMS, "verdicts"])


@pytest.mark.parametrize("theorem", KNOWN_CLAIMS)
def test_verify_report_matches_golden(theorem, capsys):
    code = main(["verify", "--theorem", theorem, "--no-timing"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert out.encode("utf-8") == (GOLDEN / f"{theorem}.json").read_bytes()


def test_t38_off_default_report_matches_golden(capsys):
    """T3.8 at --dims 2,1 passes, and its printed-sign errata records
    ratios that differ across words."""
    code = main(["verify", "--theorem", "T3.8", "--dims", "2,1", "--no-timing"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert out.encode("utf-8") == (GOLDEN / "options" / "T3.8_dims2,1.json").read_bytes()


def test_t72_level_two_report_matches_golden(capsys):
    """T7.2 at --k 2 passes, and both printed-coefficient records are
    errata: the first level at which the printed tail sign (-1)^{k m(L)}
    and the level-k weights differ from the corrected ones."""
    code = main(["verify", "--theorem", "T7.2", "--n", "2", "--k", "2", "--no-timing"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert out.encode("utf-8") == (GOLDEN / "options" / "T7.2_n2_k2.json").read_bytes()


def test_t73_level_two_report_matches_golden(capsys):
    """T7.3 at --k 2 passes: both level families over W = (2|2) have 16
    members, and the tower over W = (0|2) reaches degree 8."""
    code = main(["verify", "--theorem", "T7.3", "--n", "2", "--k", "2", "--no-timing"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert out.encode("utf-8") == (GOLDEN / "options" / "T7.3_n2_k2.json").read_bytes()


def test_t51_dims_2_2_report_matches_golden(capsys):
    """T5.1 at --dims 2,2 passes; its row-paired inverse-form power moves
    slots by (0,2,1,3,4,5), so the report covers a nontrivial slot
    permutation (at (1|2) the rows are numbered in slot order)."""
    code = main(["verify", "--theorem", "T5.1", "--dims", "2,2", "--no-timing"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert out.encode("utf-8") == (GOLDEN / "options" / "T5.1_dims2,2.json").read_bytes()


def test_t22_relations_report_matches_golden(capsys):
    """T2.2 at --udims 1,2 --wdims 1,2 substitutes its 16 rectangle
    relations to zero, and they span the 16-dimensional kernel: unlike the
    catalog default, the relation pass has relations to check."""
    argv = ["verify", "--theorem", "T2.2", "--udims", "1,2", "--wdims", "1,2", "--no-timing"]
    code = main(argv)
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert out.encode("utf-8") == (GOLDEN / "options" / "T2.2_udims1,2_wdims1,2.json").read_bytes()


def test_t22_relation_orbits_report_matches_golden(capsys):
    """T2.2 at --udims 2,2 --wdims 2,2: 256 relations and a 256-dimensional
    kernel over 985 blocks in 154 orbits of the letter permutations, so
    most blocks take their kernel dimension from another block of their
    orbit."""
    argv = ["verify", "--theorem", "T2.2", "--udims", "2,2", "--wdims", "2,2", "--no-timing"]
    code = main(argv)
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert out.encode("utf-8") == (GOLDEN / "options" / "T2.2_udims2,2_wdims2,2.json").read_bytes()


@pytest.mark.parametrize(
    "argv, golden",
    [
        (
            ["--family", "gl", "--dims", "1,1", "--pqkl", "2,2,2,2", "--degree", "4"],
            "invariants_gl_dims1,1_pqkl2,2,2,2_deg4.json",
        ),
        (
            ["--family", "pe", "--dims", "1,1", "--pqkl", "3,2,0,0", "--degree", "6"],
            "invariants_pe_dims1,1_pqkl3,2,0,0_deg6.json",
        ),
    ],
)
def test_oracle_basis_report_matches_golden(argv, golden, capsys):
    """The oracle's printed basis, polynomial by polynomial: most blocks of
    these cases take their kernel from another block of their orbit, and
    the odd-letter swaps of both cases relabel with Koszul signs."""
    code = main(["invariants", *argv, "--no-timing"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert out.encode("utf-8") == (GOLDEN / "options" / golden).read_bytes()
