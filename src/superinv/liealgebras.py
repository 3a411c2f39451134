"""Matrix Lie superalgebras gl, sl, osp, pe, spe: bases, brackets, and the
derivation action on polynomial algebras.

Form-preserving families are not hand-coded; their bases are exact
nullspaces of the annihilation condition on the gl basis, echelonized for
determinism.  `build_family` checks that a basis is linearly independent;
bracket closure is checked by `tests/test_liealgebras.py::test_bracket_closure`.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass, field

from .alphabet import EVEN, ODD, IndexRange, SuperIndex, ev, od
from .coefficients import Coeff, SparseElement, add_scaled, exact
from .errors import InvalidOptions
from .linalg import SpanTracker, _primitive_terms, nullspace
from .polynomials import AlgebraDescriptor, Polynomial


@dataclass(eq=False, repr=False)
class MatrixElement(SparseElement):
    """Homogeneous matrix over the super vector space with basis indexed by
    `dims`.  Entry (r, c) sends basis vector c to basis vector r.  Entries
    are `int` while they are integral, `Fraction` only after a real
    division, never `float` (see `superinv.coefficients`)."""

    dims: IndexRange
    terms: dict[tuple[SuperIndex, SuperIndex], Coeff]
    parity: int

    def __post_init__(self):
        clean = {}
        for (r, c), v in self.terms.items():
            v = exact(v)
            if not v:
                continue
            if (r.parity + c.parity) % 2 != self.parity:
                raise ValueError("entry off the declared parity block")
            clean[(r, c)] = v
        self.terms = clean

    @staticmethod
    def unit(dims: IndexRange, r: SuperIndex, c: SuperIndex) -> "MatrixElement":
        return MatrixElement(dims, {(r, c): 1}, (r.parity + c.parity) % 2)

    def _space(self) -> tuple:
        return (self.dims, self.parity)

    def _wrap(self, terms: dict) -> "MatrixElement":
        return MatrixElement(self.dims, terms, self.parity)

    @staticmethod
    def _label(rc: tuple[SuperIndex, SuperIndex]) -> str:
        return f"E[{rc[0]},{rc[1]}]"

    def matmul(self, other: "MatrixElement") -> "MatrixElement":
        out: dict[tuple[SuperIndex, SuperIndex], Coeff] = {}
        for (r1, c1), v1 in self.terms.items():
            for (r2, c2), v2 in other.terms.items():
                if c1 != r2:
                    continue
                k = (r1, c2)
                out[k] = out.get(k, 0) + v1 * v2
        return MatrixElement(self.dims, out, (self.parity + other.parity) % 2)

    def bracket(self, other: "MatrixElement") -> "MatrixElement":
        """Superbracket [X, Y] = XY - (-1)^{p(X)p(Y)} YX."""
        sign = (-1) ** (self.parity * other.parity)
        return self.matmul(other) + other.matmul(self).scale(-sign)

    def supertrace(self) -> Coeff:
        out = 0
        for (r, c), v in self.terms.items():
            if r == c:
                out += v if r.parity == EVEN else -v
        return out

    def is_diagonal(self) -> bool:
        return all(r == c for (r, c) in self.terms)

    def column(self, c: SuperIndex) -> dict[SuperIndex, Coeff]:
        """Action on the basis vector e_c."""
        return {r: v for (r, cc), v in self.terms.items() if cc == c}

    def dual_row(self, r: SuperIndex) -> dict[SuperIndex, Coeff]:
        """Coefficients of the dual action: e_r^* goes to
        -(-1)^{p(X)p(r)} sum of X[r,c] e_c^*."""
        sign = -((-1) ** (self.parity * r.parity))
        return {c: v * sign for (rr, c), v in self.terms.items() if rr == r}


@dataclass
class AlgebraFamily:
    tag: str
    dims: IndexRange
    basis: list[MatrixElement]
    grading: dict[str, list[MatrixElement]] = field(default_factory=dict)

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def diagonal_basis(self) -> list[MatrixElement]:
        return [b for b in self.basis if b.is_diagonal()]


def gl_basis(dims: IndexRange) -> list[MatrixElement]:
    letters = dims.indices()
    return [MatrixElement.unit(dims, r, c) for r in letters for c in letters]


def _parity_block(dims: IndexRange, parity: int) -> list[tuple[SuperIndex, SuperIndex]]:
    letters = dims.indices()
    coords = [
        (r, c) for r in letters for c in letters if (r.parity + c.parity) % 2 == parity
    ]
    # off-diagonal coordinates first: echelonization then pushes purely
    # diagonal solutions into recognisable rows
    coords.sort(key=lambda rc: (rc[0] == rc[1], rc))
    return coords


def _solve_family(
    dims: IndexRange,
    conditions,
    parity: int,
) -> list[MatrixElement]:
    """Solve linear conditions on a single parity block of gl.

    `conditions(X)` maps a MatrixElement to a list of exact numbers that
    must all vanish.
    """
    coords = _parity_block(dims, parity)
    # each condition gives one linear equation over the coords
    rows: dict[int, dict[int, Coeff]] = {}
    for i, coord in enumerate(coords):
        for j, v in enumerate(conditions(MatrixElement.unit(dims, *coord))):
            if v:
                rows.setdefault(j, {})[i] = v
    return [
        MatrixElement(dims, {coords[i]: v for i, v in _primitive_terms(vec).items()}, parity)
        for vec in nullspace(list(rows.values()), len(coords))
    ]


def osp_form_tensor(dims: IndexRange):
    """The preserved covector pairing for the orthosymplectic family:
    symmetric anti-diagonal on the even part, symplectic pairing on the odd
    part.  Returned as a list of ((a, b), coeff) slots of a two-fold dual
    tensor."""
    n, m = dims.even_count, dims.odd_count
    if m % 2:
        raise InvalidOptions(f"osp needs an even odd dimension, got --dims {n},{m}")
    r = m // 2
    terms: list[tuple[tuple[SuperIndex, SuperIndex], int]] = []
    for i in range(1, n + 1):
        terms.append(((ev(i), ev(n - i + 1)), 1))
    for j in range(1, r + 1):
        terms.append(((od(m - j + 1), od(j)), 1))
        terms.append(((od(j), od(m - j + 1)), -1))
    return terms


def pe_form_tensor(dims: IndexRange):
    """The preserved odd covector pairing for the periplectic family."""
    n, m = dims.even_count, dims.odd_count
    if n != m:
        raise InvalidOptions(f"periplectic dimensions must be n,n, got --dims {n},{m}")
    terms: list[tuple[tuple[SuperIndex, SuperIndex], int]] = []
    for i in range(1, n + 1):
        terms.append(((ev(i), od(i)), 1))
        terms.append(((od(i), ev(i)), 1))
    return terms


def _dual_pair_action(x: MatrixElement, form) -> list[Coeff]:
    """Coefficients of x acting on a dual-dual tensor sum c_{ab} e_a* x e_b*.

    The action on e_a* is -(-1)^{p(x)p(a)} sum_c x[a,c] e_c*; crossing into the
    second slot costs (-1)^{p(x)p(first slot)}.
    """
    out: dict[tuple[SuperIndex, SuperIndex], Coeff] = {}
    for (a, b), coeff in form:
        for c, v in x.dual_row(a).items():
            out[(c, b)] = out.get((c, b), 0) + coeff * v
        sign = (-1) ** (x.parity * a.parity)
        for c, v in x.dual_row(b).items():
            out[(a, c)] = out.get((a, c), 0) + coeff * v * sign
    letters = x.dims.indices()
    return [out.get((a, b), 0) for a in letters for b in letters]


def build_family(tag: str, dims: IndexRange) -> AlgebraFamily:
    """Construct a basis for the requested family, checked for linear
    independence (bracket closure is left to the test suite)."""
    if tag == "gl":
        fam = AlgebraFamily("gl", dims, gl_basis(dims))
    elif tag == "sl":
        basis = [
            MatrixElement.unit(dims, r, c)
            for r in dims
            for c in dims
            if r != c
        ]
        letters = dims.indices()
        last = letters[-1]
        s_last = -1 if last.parity else 1
        for a in letters[:-1]:
            s_a = -1 if a.parity else 1
            x = MatrixElement.unit(dims, a, a) + MatrixElement.unit(dims, last, last).scale(
                -s_a * s_last
            )
            basis.append(x)
        fam = AlgebraFamily("sl", dims, basis)
    elif tag == "osp":
        form = osp_form_tensor(dims)
        basis = []
        for parity in (0, 1):
            basis.extend(_solve_family(dims, lambda x: _dual_pair_action(x, form), parity))
        fam = AlgebraFamily("osp", dims, basis)
    elif tag in ("pe", "spe"):
        form = pe_form_tensor(dims)
        basis = []
        for parity in (0, 1):
            if tag == "pe":
                cond = lambda x: _dual_pair_action(x, form)
            else:
                cond = lambda x: _dual_pair_action(x, form) + [x.supertrace()]
            basis.extend(_solve_family(dims, cond, parity))
        fam = AlgebraFamily(tag, dims, basis)
        fam.grading = _pe_grading(fam)
    else:
        raise ValueError(f"unknown family tag {tag!r}")
    if _span_tracker(fam).rank != fam.dimension:
        raise AssertionError("family basis is linearly dependent")
    return fam


def _pe_grading(fam: AlgebraFamily) -> dict[str, list[MatrixElement]]:
    """Split a periplectic-type basis into the (lower | even | upper) blocks."""
    minus, zero, plus = [], [], []
    for b in fam.basis:
        blocks = {(r.parity, c.parity) for (r, c) in b.terms}
        if blocks <= {(ODD, EVEN)}:
            minus.append(b)
        elif blocks <= {(EVEN, ODD)}:
            plus.append(b)
        elif blocks <= {(EVEN, EVEN), (ODD, ODD)}:
            zero.append(b)
        else:  # mixed homogeneous odd element: split it
            lower = {k: v for k, v in b.terms.items() if (k[0].parity, k[1].parity) == (ODD, EVEN)}
            upper = {k: v for k, v in b.terms.items() if (k[0].parity, k[1].parity) == (EVEN, ODD)}
            if lower:
                minus.append(MatrixElement(b.dims, lower, 1))
            if upper:
                plus.append(MatrixElement(b.dims, upper, 1))
    return {"minus": _dedupe(minus), "zero": zero, "plus": _dedupe(plus)}


def _dedupe(elements: list[MatrixElement]) -> list[MatrixElement]:
    tracker = SpanTracker()
    return [e for e in elements if tracker.add(e.terms)]


def _span_tracker(fam: AlgebraFamily) -> SpanTracker:
    tracker = SpanTracker()
    for b in fam.basis:
        tracker.add(b.terms)
    return tracker


# ---------------------------------------------------------------------------
# derivation action on the polynomial algebras


def generator_images(x: MatrixElement, algebra: AlgebraDescriptor) -> list:
    """The image of each generator under x, as a tuple of (generator index,
    coefficient) pairs, or None for a generator without an inner action.

    x[r,i] goes to (-1)^{p(x)p(r)} sum over a of x[a,i] x[r,a]: the matrix
    acts through the vector slot, crossing the u-factor first.  x*[i,s]
    goes to the dual action, -(-1)^{p(x)p(i)} sum over b of x[i,b] x*[b,s].
    """
    columns: dict[SuperIndex, list] = {}
    rows: dict[SuperIndex, list] = {}
    for (r, c), v in x.terms.items():
        columns.setdefault(c, []).append((r, v))
        rows.setdefault(r, []).append((c, v))
    index = algebra.maybe_index
    out: list = []
    for g in algebra.generators:
        odd_crossing = x.parity and g.row.parity
        if g.family == "uv":
            sign = -1 if odd_crossing else 1
            pairs = [(index("uv", g.row, a), v * sign) for a, v in columns.get(g.col, ())]
        elif g.family == "vw":
            sign = 1 if odd_crossing else -1
            pairs = [(index("vw", b, g.col), v * sign) for b, v in rows.get(g.row, ())]
        else:
            out.append(None)
            continue
        out.append(tuple((i, v) for i, v in pairs if i is not None))
    return out


def act_through_images(
    images: list, parity: int, algebra: AlgebraDescriptor, terms: dict
) -> dict:
    """An element of the given parity, with generator images `images`,
    applied as a super-derivation to a term dict.

    Each factor of a monomial is replaced in turn by its image, with the
    sign (-1)^{parity * p(factors before it)}; the new factor goes back into
    the sorted rest of the monomial by bisection, with the Koszul sign of
    the odd factors it crosses, and the term is zero when an odd factor
    repeats.  Returns raw sums: zeros are left in, and coefficients are not
    made exact (wrap the result in `Polynomial` for that).
    """
    parities = algebra.parities
    out: dict = {}
    get = out.get
    for mono, coeff in terms.items():
        odd_before = [0]
        for g in mono:
            odd_before.append(odd_before[-1] + parities[g])
        for pos, gen in enumerate(mono):
            image = images[gen]
            if image is None:
                family = algebra.generators[gen].family
                raise ValueError(f"family {family!r} carries no inner action")
            if not image:
                continue
            rest = mono[:pos] + mono[pos + 1 :]
            c = -coeff if parity and odd_before[pos] % 2 else coeff
            for idx, v in image:
                k = bisect_left(rest, idx)
                if parities[idx]:
                    if k < len(rest) and rest[k] == idx:
                        continue
                    # odd factors between slot pos and slot k of the rest
                    if k <= pos:
                        crossed = odd_before[pos] - odd_before[k]
                    else:
                        crossed = odd_before[k + 1] - odd_before[pos + 1]
                    if crossed % 2:
                        v = -v
                key = rest[:k] + (idx,) + rest[k:]
                out[key] = get(key, 0) + c * v
    return out


def act_on_polynomial(x: MatrixElement, f: Polynomial) -> Polynomial:
    """Super-derivation extension of the generator action."""
    algebra = f.algebra
    v_range = algebra.v_range
    if v_range is not None and v_range != x.dims:
        raise ValueError("matrix dimensions do not match the algebra's inner space")
    images = generator_images(x, algebra)
    return Polynomial(algebra, act_through_images(images, x.parity, algebra, f.terms))


# ---------------------------------------------------------------------------
# the lower-triangular product of the periplectic family


def yminus_factors(dims: IndexRange) -> list[MatrixElement]:
    """Factors E[i', j] - E[j', i] over lexicographic pairs i < j."""
    n = dims.even_count
    out = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            out.append(
                MatrixElement.unit(dims, od(i), ev(j))
                + MatrixElement.unit(dims, od(j), ev(i)).scale(-1)
            )
    return out


def t1_matrices(n: int) -> list[dict[tuple[int, int], int]]:
    """0/1 matrices with zero diagonal and a_ij + a_ji = 1 off the diagonal."""
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    out = []
    for choice in itertools.product((0, 1), repeat=len(pairs)):
        a: dict[tuple[int, int], int] = {}
        for (i, j), pick in zip(pairs, choice):
            a[(i, j)] = pick
            a[(j, i)] = 1 - pick
        out.append(a)
    return out


def _abs_recursive(a: dict[tuple[int, int], int], n: int, corrected: bool) -> int:
    """Sign exponent |A| for the lower-product expansion.

    `corrected=False` is the literal recursion: base |A| = 0 at n = 2, the
    lower-entry count taken over the whole matrix at every level, and the
    constant term n(n-1)(n-2)/6.

    `corrected=True` repairs it: base a_21 at n = 2, only the last row's
    lower entries per level, and the constant (n-1)(n-2)(n-3)/6 counting the
    actual factor crossings.
    """
    if n == 2:
        return a[(2, 1)] if corrected else 0
    sub = {k: v for k, v in a.items() if k[0] < n and k[1] < n}

    def substars(i: int) -> int:
        return sum(v for (p, q), v in sub.items() if p > i)

    total = _abs_recursive(sub, n - 1, corrected)
    for i in range(1, n - 1):
        total += a[(i, n)] * substars(i)
    for i in range(2, n):
        for j in range(1, i):
            total += a[(i, n)] * a[(n, j)]
    if corrected:
        total += sum(a[(n, j)] for j in range(1, n))
        total += (n - 1) * (n - 2) * (n - 3) // 6
    else:
        total += sum(v for (i, j), v in a.items() if i > j)
        total += n * (n - 1) * (n - 2) // 6
    return total


def abs_exponent(a: dict[tuple[int, int], int], n: int, convention: str = "corrected") -> int:
    """Sign exponent |A| of an admissible matrix on n >= 2 letters."""
    if convention not in ("corrected", "literal"):
        raise ValueError("convention must be 'corrected' or 'literal'")
    if n < 2:
        raise ValueError("need n >= 2")
    return _abs_recursive(a, n, convention == "corrected")


def _gm_algebra(n: int) -> AlgebraDescriptor:
    """Exterior algebra on the odd abelian lower block: one odd generator
    per off-diagonal pair, ordered row-major."""
    from .polynomials import Generator

    gens = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j:
                gens.append(Generator("gm", od(i), ev(j), 1, f"E[{i}',{j}]"))
    return AlgebraDescriptor(f"E(g-)[{n}]", gens)


def yminus_expansion(n: int) -> dict:
    """Expand the product over pairs i<j of (E[i',j] - E[j',i]) inside the
    exterior algebra on the symbols, and compare with the signed sum over
    the admissible 0/1 matrices under both sign conventions.

    Returns the product expansion, both sums, and the per-matrix diffs.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    algebra = _gm_algebra(n)

    def sym(i: int, j: int) -> Polynomial:
        return algebra.gen(algebra.index("gm", od(i), ev(j)))

    product = algebra.one()
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            product = product * (sym(i, j) - sym(j, i))

    def matrix_monomial(a: dict[tuple[int, int], int]) -> Polynomial:
        term = algebra.one()
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i != j and a[(i, j)]:
                    term = term * sym(i, j)
        return term

    sums = {}
    diffs = {}
    for convention in ("literal", "corrected"):
        acc: dict = {}
        for a in t1_matrices(n):
            sign = (-1) ** abs_exponent(a, n, convention)
            add_scaled(acc, matrix_monomial(a).terms, sign)
        total = Polynomial(algebra, acc)
        sums[convention] = total
        diffs[convention] = product - total
    return {
        "product": product,
        "sum_literal": sums["literal"],
        "sum_corrected": sums["corrected"],
        "diff_literal": diffs["literal"],
        "diff_corrected": diffs["corrected"],
        "term_count": len(product.terms),
    }
