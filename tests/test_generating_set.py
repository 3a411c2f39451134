"""The certified generating subset `AlgebraFamily.generators` and the one
invariance predicate `liealgebras.invariant` that acts with it.

The certificate is re-derived here on dense matrices with a naive all-pairs
bracket closure and an integer elimination of its own; the predicate is
compared with acting by every basis element."""

from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import superinv.invariants as invariants_module
import superinv.liealgebras as liealgebras_module
from superinv.alphabet import IndexRange, ev
from superinv.claims import KNOWN_CLAIMS
from superinv.cli import EXIT_OK, main
from superinv.generators import (
    osp_relative_generators,
    scalar_products,
    sl_extra_generators,
    sl_extra_literal,
    spe_constructive_element,
)
from superinv.invariants import algebra_for, invariant_space_bruteforce
from superinv.liealgebras import AlgebraFamily, annihilates, build_family, invariant
from superinv.polynomials import Polynomial, monomials_of_degree
from superinv.tensors import (
    TensorElement,
    act_on_tensor,
    nabla_construct,
    sl_invariant_element,
    theta,
)

GOLDEN = Path(__file__).parent / "golden"

CERTIFIED = [
    (tag, dims)
    for tag in ("gl", "sl", "osp", "pe", "spe")
    for dims in ((1, 1), (2, 1), (1, 2), (2, 2), (3, 3), (3, 2), (1, 4))
    if not (tag == "osp" and dims[1] % 2)
    and not (tag in ("pe", "spe") and dims[0] != dims[1])
]


# ---------------------------------------------------------------------------
# the certificate, re-derived on dense matrices


def _dense(x, letters):
    """x as (parity, square list of entries in letter order)."""
    pos = {a: i for i, a in enumerate(letters)}
    rows = [[0] * len(letters) for _ in letters]
    for (r, c), v in x.terms.items():
        rows[pos[r]][pos[c]] = v
    return x.parity, rows


def _dense_bracket(x, y):
    (px, a), (py, b) = x, y
    n = len(a)
    ab = [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    ba = [[sum(b[i][k] * a[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    sign = -1 if px and py else 1
    return (px + py) % 2, [[ab[i][j] - sign * ba[i][j] for j in range(n)] for i in range(n)]


class _Echelon:
    """Row echelon form of integer vectors, eliminated fraction-free."""

    def __init__(self):
        self.rows: list[tuple[int, list]] = []

    def reduce(self, vec):
        v = list(vec)
        for p, row in self.rows:
            if v[p]:
                a, b = row[p], v[p]
                v = [a * x - b * y for x, y in zip(v, row)]
                g = gcd(*v)
                v = [x // g for x in v] if g > 1 else v
        return v

    def add(self, vec) -> bool:
        v = self.reduce(vec)
        pivot = next((i for i, c in enumerate(v) if c), None)
        if pivot is None:
            return False
        self.rows.append((pivot, v))
        return True


def _naive_generates(family, elements) -> bool:
    """All-pairs bracket closure of the elements until nothing new appears
    ([y, x] is plus or minus [x, y], so one order is enough); the closure
    must then contain every basis element."""
    letters = family.dims.indices()
    flat = lambda m: [c for row in m[1] for c in row]  # noqa: E731
    span = _Echelon()
    closure = [d for d in (_dense(x, letters) for x in elements) if span.add(flat(d))]
    new = list(closure)
    while new:
        found = []
        for x in closure:
            for y in new:
                z = _dense_bracket(x, y)
                if span.add(flat(z)):
                    found.append(z)
        closure += found
        new = found
    return all(not any(span.reduce(flat(_dense(b, letters)))) for b in family.basis)


@pytest.mark.parametrize("tag,dims", CERTIFIED)
def test_generators_certify_the_family(tag, dims):
    """The diagonal basis and the generators span the family under brackets,
    the generators are off-diagonal basis elements, and none of them can be
    dropped (greedy removal keeps only needed elements)."""
    fam = build_family(tag, IndexRange(*dims))
    gens = fam.generators
    off = [b for b in fam.basis if not b.is_diagonal()]
    assert all(any(g is b for b in off) for g in gens)
    assert len({id(g) for g in gens}) == len(gens)
    diagonal = fam.diagonal_basis()
    assert _naive_generates(fam, diagonal + gens)
    for g in gens:
        assert not _naive_generates(fam, diagonal + [x for x in gens if x is not g]), (tag, dims, g)


def test_generators_are_computed_once_and_smaller():
    fam = build_family("gl", IndexRange(2, 1))
    assert fam.generators is fam.generators
    assert len(fam.generators) == 4 < sum(not b.is_diagonal() for b in fam.basis) == 6


# ---------------------------------------------------------------------------
# the predicate against acting with every basis element


def _full_basis_invariant(family, items) -> bool:
    polys = [f for f in items if isinstance(f, Polynomial)]
    tensors = [t for t in items if not isinstance(t, Polynomial)]
    return annihilates(family.basis, polys) and all(
        act_on_tensor(x, t).is_zero() for x in family.basis for t in tensors
    )


def _gen(algebra, family, row, col):
    return algebra.gen(algebra.index(family, row, col))


def _cases():
    """(family, items, expected invariance)."""
    out = []
    for tag, dims, pqkl in [
        ("gl", (1, 1), (1, 1, 1, 1)),
        ("sl", (1, 1), (1, 1, 1, 1)),
        ("osp", (1, 2), (2, 1, 0, 0)),
        ("pe", (1, 1), (2, 1, 0, 0)),
        ("spe", (2, 2), (0, 2, 0, 0)),
    ]:
        fam = build_family(tag, IndexRange(*dims))
        alg = algebra_for(fam, *pqkl)
        out.append((fam, [g for g in scalar_products(tag, alg) if g], True))
    sl11 = build_family("sl", IndexRange(1, 1))
    extra = sl_extra_generators(algebra_for(sl11, 1, 1, 1, 1), 1)
    out.append((sl11, extra.plus + extra.minus, True))
    literal = sl_extra_literal(algebra_for(sl11, 1, 1, 1, 1), 1)
    out.append((sl11, literal.minus, False))
    osp12 = build_family("osp", IndexRange(1, 2))
    nab = nabla_construct(IndexRange(1, 2))
    out.append((osp12, osp_relative_generators(algebra_for(osp12, 1, 0, 0, 0), nab), True))
    out.append((osp12, [nab], True))
    out.append((sl11, [sl_invariant_element(IndexRange(1, 1), 1, hat=True)], True))
    spe22 = build_family("spe", IndexRange(2, 2))
    out.append((spe22, [spe_constructive_element(spe22, 1, "lower")], True))
    # only a diagonal element fails: the determinant of the u-block is
    # killed by the off-diagonal elements of gl(2|0) but has weight one
    # under each diagonal unit; it is an sl(2|0) invariant
    for tag in ("gl", "sl"):
        fam = build_family(tag, IndexRange(2, 0))
        alg = algebra_for(fam, 0, 0, 2, 0)
        x = lambda a, i: _gen(alg, "uv", ev(a), ev(i))  # noqa: E731
        det = x(1, 1) * x(2, 2) - x(1, 2) * x(2, 1)
        out.append((fam, [det], tag == "sl"))
        wedge = TensorElement(fam.dims, (False, False), {
            (ev(1), ev(2)): 1, (ev(2), ev(1)): -1,
        })
        out.append((fam, [wedge], tag == "sl"))
    # only an off-diagonal element fails: one weight-zero term of a scalar
    # product
    gl11 = build_family("gl", IndexRange(1, 1))
    alg = algebra_for(gl11, 1, 0, 1, 0)
    out.append((gl11, [_gen(alg, "uv", ev(1), ev(1)) * _gen(alg, "vw", ev(1), ev(1))], False))
    half = TensorElement(gl11.dims, (False, True), {(ev(1), ev(1)): 1})
    out.append((gl11, [half], False))
    out.append((gl11, [theta(gl11.dims)], True))
    return out


CASES = _cases()


@pytest.mark.parametrize("index", range(len(CASES)))
def test_invariant_matches_every_basis_element(index):
    family, items, expected = CASES[index]
    assert invariant(family, items) == _full_basis_invariant(family, items) == expected


def test_the_non_invariants_fail_where_stated():
    """The determinant fails only at a diagonal element, the lone term only
    at an off-diagonal one."""
    gl = build_family("gl", IndexRange(2, 0))
    alg = algebra_for(gl, 0, 0, 2, 0)
    x = lambda a, i: _gen(alg, "uv", ev(a), ev(i))  # noqa: E731
    det = x(1, 1) * x(2, 2) - x(1, 2) * x(2, 1)
    assert annihilates([b for b in gl.basis if not b.is_diagonal()], [det])
    assert not annihilates(gl.diagonal_basis(), [det])
    gl11 = build_family("gl", IndexRange(1, 1))
    alg = algebra_for(gl11, 1, 0, 1, 0)
    term = _gen(alg, "uv", ev(1), ev(1)) * _gen(alg, "vw", ev(1), ev(1))
    assert annihilates(gl11.diagonal_basis(), [term])
    assert not annihilates([b for b in gl11.basis if not b.is_diagonal()], [term])


_RANDOM_FAMILIES = [("gl", (1, 1)), ("sl", (1, 1)), ("gl", (2, 1)), ("osp", (1, 2)), ("pe", (1, 1)),
                    ("spe", (2, 2)), ("sl", (2, 0))]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_RANDOM_FAMILIES), st.integers(1, 3), st.data())
def test_invariant_matches_every_basis_element_on_random_polynomials(family_dims, degree, data):
    """Random combinations of monomials, invariant scalar products added
    in or not: the predicate and the full basis agree."""
    tag, dims = family_dims
    fam = build_family(tag, IndexRange(*dims))
    alg = algebra_for(fam, 1, 1, 1, 0) if tag in ("gl", "sl") else algebra_for(fam, 1, 1, 0, 0)
    monos = monomials_of_degree(alg, degree)
    picked = data.draw(st.lists(st.sampled_from(monos), max_size=3, unique=True))
    coeffs = data.draw(st.lists(st.integers(-2, 2), min_size=len(picked), max_size=len(picked)))
    f = Polynomial(alg, dict(zip(picked, coeffs)))
    items = [f]
    if data.draw(st.booleans()):
        items = [g for g in scalar_products(tag, alg) if g] + items
    assert invariant(fam, items) == _full_basis_invariant(fam, items)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(_RANDOM_FAMILIES), st.data())
def test_invariant_matches_every_basis_element_on_random_tensors(family_dims, data):
    tag, dims = family_dims
    fam = build_family(tag, IndexRange(*dims))
    letters = fam.dims.indices()
    signature = data.draw(st.sampled_from([(False, True), (True, False), (False, False)]))
    word = st.tuples(*[st.sampled_from(letters)] * len(signature))
    words = data.draw(st.lists(word, max_size=3, unique=True))
    coeffs = data.draw(st.lists(st.integers(-2, 2), min_size=len(words), max_size=len(words)))
    terms = dict(zip(words, coeffs))
    t = TensorElement(fam.dims, signature, terms)
    assert invariant(fam, [t]) == _full_basis_invariant(fam, [t])


def test_reports_do_not_depend_on_the_generating_subset(monkeypatch, capsys):
    """Acting with the whole off-diagonal basis instead of the certified
    subset writes the same 17 reports."""
    monkeypatch.setattr(
        AlgebraFamily,
        "generators",
        property(lambda fam: [b for b in fam.basis if not b.is_diagonal()]),
    )
    for claim in KNOWN_CLAIMS:
        code = main(["verify", "--theorem", claim, "--no-timing"])
        assert code == EXIT_OK
        assert capsys.readouterr().out.encode() == (GOLDEN / f"{claim}.json").read_bytes(), claim


# ---------------------------------------------------------------------------
# deterministic action counts


def test_oracle_stacks_one_map_per_generator(monkeypatch):
    """gl(2|1) stacks 4 kernel conditions per key, not its 6 off-diagonal
    elements, and the basis is unchanged."""
    real = invariants_module.joint_kernel
    stacked = []

    def counting(keys, images, entry_cap=None):
        def counted(key):
            out = images(key)
            stacked.append(len(out))
            return out

        return real(keys, counted, entry_cap)

    fam = build_family("gl", IndexRange(2, 1))
    alg = algebra_for(fam, 2, 1, 2, 1)
    monkeypatch.setattr(invariants_module, "joint_kernel", counting)
    space = invariant_space_bruteforce(fam, alg, 4, monomial_cap=60_000)
    assert stacked and set(stacked) == {4} == {len(fam.generators)}
    assert space.dimension == 41


def test_t73_acts_with_the_generators_on_each_polynomial(monkeypatch):
    """At its defaults T7.3 checks each polynomial over W = (2|2) with the
    3 certified generators of spe(2|2), not with its 7 basis elements.
    Only the actions inside `liealgebras.invariant` are counted: the route
    factors also act on the seed shadows while the families are built."""
    from superinv import claims

    elements: dict = {}
    acted: dict = {}
    checking = []
    real_table = liealgebras_module.action_table
    real_act = liealgebras_module.act_through_images
    real_invariant = liealgebras_module.invariant

    def table(xs, algebra):
        out = real_table(xs, algebra)
        elements[id(out)] = ([str(x) for x in xs], out)  # keep `out` alive so ids stay unique
        return out

    def act(table, algebra, terms):
        if checking and algebra.w_range == IndexRange(2, 2):
            key = frozenset(terms.items())
            acted.setdefault(key, []).extend(elements[id(table)][0])
        return real_act(table, algebra, terms)

    def counted_invariant(family, items):
        checking.append(True)
        try:
            return real_invariant(family, items)
        finally:
            checking.pop()

    monkeypatch.setattr(liealgebras_module, "action_table", table)
    monkeypatch.setattr(liealgebras_module, "act_through_images", act)
    monkeypatch.setattr(claims, "invariant", counted_invariant)
    assert main(["verify", "--theorem", "T7.3", "--no-timing"]) == EXIT_OK
    generators = [str(x) for x in build_family("spe", IndexRange(2, 2)).generators]
    assert len(generators) == 3
    assert acted and all(len(set(xs)) == len(xs) for xs in acted.values())
    assert {x for xs in acted.values() for x in xs} == set(generators)
    assert max(len(xs) for xs in acted.values()) == len(generators)
