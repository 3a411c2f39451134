"""Matrix Lie superalgebras gl, sl, osp, pe, spe: bases, brackets, and the
derivation action: one letter-image table per dual flag for each element
(`MatrixElement.slot_images`), extended to tensor words (`act_on_words`)
and to polynomials, where a list of elements acts in one batched walk over
the terms, each monomial packed into exponent fields of one integer
(`action_table`, `act_through_images`).

Invariance is decided by one predicate, `invariant(family, items)`, for
polynomials and tensors alike: weight zero under the diagonal basis, read
off the elements' own diagonal entries (`diagonal_weights`, `slot_weights`),
and annihilation by `AlgebraFamily.generators`, a subset of the
off-diagonal basis that generates the family with the diagonal, certified
once per family by an exact bracket span.  `annihilates(elements, polys)`
stays the plain check against a given list of elements, all of them acting
on a polynomial in one walk.

Each preserved form is written once, as a table (`invariant_form`) that
every layer reads.  No family but gl is hand-coded: the bases of sl, osp, pe
and spe are exact kernels (`linalg.joint_kernel`) of their conditions on the
gl basis, echelonized for determinism.  The condition is the supertrace for
sl, the word action on the form's dual-dual words for osp and pe, and both
for spe.  `build_family` checks that a basis is linearly independent;
bracket closure is checked by `tests/test_liealgebras.py::test_bracket_closure`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Sequence

from .alphabet import EVEN, IndexRange, SuperIndex, ev, od
from .coefficients import Coeff, SparseElement, add_scaled, normalized
from .errors import InvalidOptions
from .linalg import SpanTracker, _primitive_terms, joint_kernel, rank_rows
from .polynomials import AlgebraDescriptor, Generator, Polynomial


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
        self.terms = normalized(self.terms)
        if any((r.parity + c.parity) % 2 != self.parity for r, c in self.terms):
            raise ValueError("entry off the declared parity block")

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

    def bracket(self, other: "MatrixElement") -> "MatrixElement":
        """Superbracket [X, Y] = XY - (-1)^{p(X)p(Y)} YX."""
        sign = 1 if self.parity and other.parity else -1
        out: dict[tuple[SuperIndex, SuperIndex], Coeff] = {}
        get = out.get
        for (r1, c1), v1 in self.terms.items():
            for (r2, c2), v2 in other.terms.items():
                if c1 == r2:
                    out[r1, c2] = get((r1, c2), 0) + v1 * v2
                if c2 == r1:
                    out[r2, c1] = get((r2, c1), 0) + sign * v2 * v1
        return MatrixElement(self.dims, out, (self.parity + other.parity) % 2)

    def supertrace(self) -> Coeff:
        out = 0
        for (r, c), v in self.terms.items():
            if r == c:
                out += v if r.parity == EVEN else -v
        return out

    def is_diagonal(self) -> bool:
        return all(r == c for (r, c) in self.terms)

    def slot_images(self) -> tuple[dict, dict]:
        """The action on one slot, as one table per dual flag, (vector,
        covector), from a letter to its image, a tuple of (letter,
        coefficient) pairs; letters without an image are absent.  The
        vector e_c goes to the sum of X[r,c] e_r, and the covector e_r^* to
        -(-1)^{p(X)p(r)} times the sum of X[r,c] e_c^*."""
        vector: dict = {}
        covector: dict = {}
        for (r, c), v in self.terms.items():
            vector.setdefault(c, []).append((r, v))
            sign = 1 if self.parity and r.parity else -1
            covector.setdefault(r, []).append((c, v * sign))
        return tuple(
            {a: tuple(image) for a, image in table.items()} for table in (vector, covector)
        )


@dataclass
class AlgebraFamily:
    tag: str
    dims: IndexRange
    basis: list[MatrixElement]

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def diagonal_basis(self) -> list[MatrixElement]:
        return [b for b in self.basis if b.is_diagonal()]

    @cached_property
    def generators(self) -> list[MatrixElement]:
        """A subset of the off-diagonal basis that generates the family
        together with the diagonal basis, computed once per instance.

        The annihilator of a polynomial or a tensor is a Lie
        sub-superalgebra, so an element of weight zero under the diagonal
        basis that every generator kills is invariant under the whole
        family.  Greedy removal: each off-diagonal element, in basis order,
        is dropped when the rest still generate (`_generates`); the whole
        basis generates trivially.
        """
        diagonal = self.diagonal_basis()
        chosen = [b for b in self.basis if not b.is_diagonal()]
        for x in list(chosen):
            rest = [y for y in chosen if y is not x]
            if _generates(self, diagonal + rest):
                chosen = rest
        return chosen


def _generates(family: AlgebraFamily, elements: list[MatrixElement]) -> bool:
    """Whether the Lie sub-superalgebra generated by `elements` contains the
    family.  It is spanned by the nested brackets [x1, [x2, ..., xk]] of the
    elements, so the span grows by bracketing each new element with every
    element, until it has the family's dimension or stops growing; it must
    then contain every basis element."""
    tracker = SpanTracker()
    span = [x for x in elements if tracker.add(x.terms)]
    for y in span:  # the list grows while it is walked
        if tracker.rank >= family.dimension:
            break
        for x in elements:
            z = x.bracket(y)
            if z.terms and tracker.add(z.terms):
                span.append(z)
    return all(tracker.contains(b.terms) for b in family.basis)


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

    `conditions(X)` maps a MatrixElement to a dict of exact numbers that
    must all vanish.
    """
    return [
        MatrixElement(dims, _primitive_terms(vec), parity)
        for vec in joint_kernel(
            _parity_block(dims, parity), lambda rc: [conditions(MatrixElement.unit(dims, *rc))]
        )
    ]


def invariant_form(tag: str, dims: IndexRange) -> dict[SuperIndex, tuple[SuperIndex, int]]:
    """The bilinear form B that `tag` preserves, as a table from each letter
    a to (partner b, coefficient c) of e_a* x e_b* in the preserved
    covector; every letter is the first entry of exactly one pair.

    "osp": the symmetric anti-diagonal pairing on the even part and the
    symplectic pairing on the odd part, with -1 on an odd letter below its
    partner.  "pe" and "spe": the odd pairing e_i <-> e_i'.  The scalar
    products add their terms in table order: for osp the evens, then the
    letters m-j+1' and j' for each j <= m/2.
    """
    n, m = dims.even_count, dims.odd_count
    if tag == "osp":
        if m % 2:
            raise InvalidOptions(f"osp needs an even odd dimension, got --dims {n},{m}")
        form = {ev(i): (ev(n - i + 1), 1) for i in range(1, n + 1)}
        for j in range(1, m // 2 + 1):
            form[od(m - j + 1)] = (od(j), 1)
            form[od(j)] = (od(m - j + 1), -1)
        return form
    if tag in ("pe", "spe"):
        if n != m:
            raise InvalidOptions(f"periplectic dimensions must be n,n, got --dims {n},{m}")
        form = {}
        for i in range(1, n + 1):
            form[ev(i)] = (od(i), 1)
            form[od(i)] = (ev(i), 1)
        return form
    raise ValueError(f"no invariant form for family {tag!r}")


def build_family(tag: str, dims: IndexRange) -> AlgebraFamily:
    """Construct a basis for the requested family, checked for linear
    independence (bracket closure is left to the test suite)."""
    if tag == "gl":
        fam = AlgebraFamily("gl", dims, gl_basis(dims))
    elif tag in ("sl", "osp", "pe", "spe"):
        if tag == "sl" and not dims.size:
            raise InvalidOptions("sl needs a letter, got --dims 0,0")
        form = {} if tag == "sl" else invariant_form(tag, dims)
        words = {(a, b): c for a, (b, c) in form.items()}

        def cond(x: MatrixElement) -> dict:
            out = act_on_words(x.slot_images(), x.parity, (True, True), words)
            if tag in ("sl", "spe"):
                out["str"] = x.supertrace()
            return out

        basis = [b for parity in (0, 1) for b in _solve_family(dims, cond, parity)]
        fam = AlgebraFamily(tag, dims, basis)
    else:
        raise ValueError(f"unknown family tag {tag!r}")
    if rank_rows(b.terms for b in fam.basis) != fam.dimension:
        raise AssertionError("family basis is linearly dependent")
    return fam


# ---------------------------------------------------------------------------
# the derivation action on tensor words and on the polynomial algebras


def act_on_words(
    tables: tuple[dict, dict], parity: int, signature: Sequence[bool], terms: dict
) -> dict:
    """An element of the given parity, with letter-image tables `tables`
    (`MatrixElement.slot_images`), applied as a derivation to a dict of
    letter words whose dual positions `signature` marks.

    Each letter of a word is replaced in turn by its image in the table of
    its position's dual flag, with the sign (-1)^{parity * p(letters before
    it)}.  Returns raw sums: zeros are left in, and coefficients are not
    made exact.
    """
    row = [tables[d] for d in signature]
    out: dict = {}
    get = out.get
    for w, coeff in terms.items():
        odd = 0
        for pos, (letter, table) in enumerate(zip(w, row)):
            image = table.get(letter)
            if image:
                c = -coeff if parity and odd else coeff
                head, tail = w[:pos], w[pos + 1 :]
                for target, v in image:
                    key = head + (target,) + tail
                    out[key] = get(key, 0) + c * v
            odd ^= letter.parity
    return out


def action_table(elements: Sequence[MatrixElement], algebra: AlgebraDescriptor) -> tuple:
    """The generator images of all `elements` merged for one walk: (element
    count, one row per generator, None without an inner action, a cache of
    each width's `_packed_row`s, packed on first use).  x[r,i] and x*[i,s]
    go to the image of slot i (`slot_images`); x[r,i] takes the sign
    (-1)^{p(x)p(r)} of crossing the u-factor first.  A row holds, for an
    even and an odd parity of the factors before the generator, its
    diagonal entries (slot, coeff) and other targets (target, [(slot,
    coeff), ...]), odd elements negated in the odd half."""
    if algebra.v_range is not None and any(x.dims != algebra.v_range for x in elements):
        raise ValueError("matrix dimensions do not match the algebra's inner space")
    tables = [(x.slot_images(), x.parity) for x in elements]
    index = algebra.maybe_index
    rows: list = []
    for gen, g in enumerate(algebra.generators):
        if g.family not in ("uv", "vw"):
            rows.append(None)
            continue
        halves = (([], {}), ([], {}))
        for slot, ((vector, covector), parity) in enumerate(tables):
            if g.family == "uv":
                sign = -1 if parity and g.row.parity else 1
                pairs = [(index("uv", g.row, a), v * sign) for a, v in vector.get(g.col, ())]
            else:
                pairs = [(index("vw", b, g.col), v) for b, v in covector.get(g.row, ())]
            for idx, v in pairs:
                for odd, (diagonal, moved) in enumerate(halves):
                    entry = (slot, -v if odd and parity else v)
                    if idx == gen:
                        diagonal.append(entry)
                    elif idx is not None:
                        moved.setdefault(idx, []).append(entry)
        rows.append([(diagonal, list(moved.items())) for diagonal, moved in halves])
    return len(elements), rows, {}


def field_width(terms: Iterable[tuple]) -> int:
    """Bits per exponent field of a packed monomial: the bit length of the
    highest degree in `terms`, which no exponent of their images exceeds."""
    return max(map(len, terms), default=0).bit_length() or 1


def _packed_row(algebra: AlgebraDescriptor, rows: list, g: int, width: int) -> tuple:
    """Row g of an `action_table` on monomials packed at `width`: its unit
    field, its odd-mask bit, the mask of the generators below it, and per
    half its diagonal entries and its moves to idx (delta, bit of an odd
    idx, mask strictly between g and an odd idx, entries)."""
    if (row := rows[g]) is None:
        raise ValueError(f"family {algebra.generators[g].family!r} carries no inner action")
    parities = algebra.parities

    def move(idx: int, entries: list) -> tuple:
        between = parities[idx] * ((1 << max(g, idx)) - (1 << min(g, idx) + 1))
        return (1 << width * idx) - (1 << width * g), parities[idx] << idx, between, entries

    halves = [(diagonal, [move(*m) for m in moved]) for diagonal, moved in row]
    return 1 << width * g, parities[g] << g, (1 << g) - 1, halves


def act_through_images(table: tuple, algebra: AlgebraDescriptor, terms: dict) -> list[dict]:
    """Every element of an `action_table` applied as a super-derivation to a
    term dict in one walk: one raw image dict per element, keyed by packed
    monomials (`polynomial_images` unpacks them), zeros left in.

    A monomial is packed once: the exponent of generator g in the field at
    bit g*`field_width(terms)`, and its odd factors as a mask with bit g.
    Each distinct factor g is replaced once, an even one times its exponent,
    with the derivation sign of the odd factors below g; a move adds its
    delta to the key, is zero onto an odd factor present, and takes the
    Koszul sign of the odd factors strictly between g and an odd target."""
    size, rows, packed = table
    width = field_width(terms)
    if (steps := packed.get(width)) is None:
        steps = packed[width] = [None] * len(rows)
    full = (1 << width) - 1
    outs: list[dict] = [{} for _ in range(size)]
    for mono, coeff in terms.items():
        key = odd = 0
        for gen in mono:
            if (step := steps[gen]) is None:
                step = steps[gen] = _packed_row(algebra, rows, gen, width)
            key += step[0]
            odd |= step[1]
        prev = -1
        for gen in mono:
            if gen == prev:
                continue
            prev = gen
            _, _, below, halves = steps[gen]
            diagonal, moves = halves[(odd & below).bit_count() & 1]
            c = coeff * (key >> width * gen & full)
            for slot, v in diagonal:
                out = outs[slot]
                out[key] = out.get(key, 0) + c * v
            for delta, bit, between, entries in moves:
                if odd & bit:
                    continue
                target = key + delta
                s = -c if (odd & between).bit_count() & 1 else c
                for slot, v in entries:
                    out = outs[slot]
                    out[target] = out.get(target, 0) + s * v
    return outs


@lru_cache(maxsize=1 << 14)
def unpacked(key: int, width: int) -> tuple:
    """The sorted generator tuple of a monomial packed at `width`, cached:
    images share far fewer low and high halves of fields than keys."""
    fields = range(key.bit_length() // width + 1)
    return tuple(g for g in fields for _ in range(key >> width * g & (1 << width) - 1))


def polynomial_images(table: tuple, f: Polynomial) -> list[Polynomial]:
    """Every element of an `action_table` applied to f, each distinct key of
    the images unpacked once, as its low and its high half of fields."""
    w = field_width(f.terms)
    high = -1 << w * (len(f.algebra.generators) // 2)
    images = act_through_images(table, f.algebra, f.terms)
    monos = {k: unpacked(k & ~high, w) + unpacked(k & high, w) for image in images for k in image}
    return [Polynomial(f.algebra, {monos[k]: c for k, c in image.items()}) for image in images]


def act_on_polynomial(x: MatrixElement, f: Polynomial) -> Polynomial:
    """Super-derivation extension of the generator action."""
    (image,) = polynomial_images(action_table([x], f.algebra), f)
    return image


def annihilates(basis: Sequence[MatrixElement], polys: Iterable[Polynomial]) -> bool:
    """Whether every element of `basis` kills every polynomial of `polys`.

    All the elements act on each polynomial's primitive integer multiple in
    one walk, through one action table per algebra; the check stops at the
    first polynomial with a nonzero image."""
    tables: dict = {}
    for f in polys:
        if f.algebra not in tables:
            tables[f.algebra] = action_table(basis, f.algebra)
        images = act_through_images(tables[f.algebra], f.algebra, _primitive_terms(f.terms))
        if any(any(image.values()) for image in images):
            return False
    return True


def diagonal_weights(family: AlgebraFamily, algebra: AlgebraDescriptor) -> list[tuple]:
    """One weight per generator for each diagonal basis element x
    (`_generator_weights` of their `slot_weights`).  x multiplies a monomial
    by the sum of its factors' weights."""
    return _generator_weights(family, [slot_weights(x) for x in family.diagonal_basis()], algebra)


def _generator_weights(family: AlgebraFamily, by_flag: list, algebra: AlgebraDescriptor) -> list:
    """For each of the family's diagonal elements, given by its
    `slot_weights`, one weight per generator: a uv generator takes the
    vector weight of its column letter, a vw generator the covector weight
    of its row letter, any other 0."""
    if algebra.v_range is not None and family.dims != algebra.v_range:
        raise ValueError("matrix dimensions do not match the algebra's inner space")
    return [
        tuple(
            vector.get(g.col, 0) if g.family == "uv"
            else covector.get(g.row, 0) if g.family == "vw"
            else 0
            for g in algebra.generators
        )
        for vector, covector in by_flag
    ]


def slot_weights(x: MatrixElement) -> tuple[dict, dict]:
    """The weight of each letter under a diagonal element x, one table per
    dual flag (`slot_images`): the coefficient of the letter in its own
    image."""
    return tuple({a: dict(image)[a] for a, image in table.items()} for table in x.slot_images())


def weighs_zero(weights: Iterable[tuple[dict, dict]], signature: Sequence[bool], w: tuple) -> bool:
    """Whether the word w, with dual positions `signature`, has weight zero
    under every diagonal element of the given `slot_weights`: x multiplies
    a word by the sum of its letters' weights, each read from the table of
    its position's dual flag."""
    return not any(sum(t[d].get(a, 0) for a, d in zip(w, signature)) for t in weights)


def invariant(family: AlgebraFamily, items: Iterable) -> bool:
    """Whether the whole family kills every polynomial or tensor of `items`.

    Every monomial or word must have weight zero under the diagonal basis
    (`diagonal_weights`, `slot_weights`), and every element of
    `family.generators` must kill every item: the annihilator is a Lie
    sub-superalgebra, and those elements generate the family.  The check
    stops at the first nonzero weight or image.
    """
    items = list(items)
    polys = [f for f in items if isinstance(f, Polynomial)]
    tensors = [t for t in items if not isinstance(t, Polynomial)]
    if any(t.dims != family.dims for t in tensors):
        raise ValueError("dimension mismatch")
    by_flag = [slot_weights(x) for x in family.diagonal_basis()]
    weights: dict = {}
    for f in polys:
        if f.algebra not in weights:
            weights[f.algebra] = _generator_weights(family, by_flag, f.algebra)
        if any(sum(w[g] for g in m) for m in f.terms for w in weights[f.algebra]):
            return False
    if not all(weighs_zero(by_flag, t.signature, w) for t in tensors for w in t.terms):
        return False
    if not annihilates(family.generators, polys):
        return False
    actions = [(x.slot_images(), x.parity) for x in family.generators]
    return not any(
        any(act_on_words(tables, parity, t.signature, t.terms).values())
        for t in tensors
        for tables, parity in actions
    )


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

    Returns the product's term count and, per convention, the product minus
    the signed sum.
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

    out: dict = {"term_count": len(product.terms)}
    for convention in ("literal", "corrected"):
        acc: dict = {}
        for a in t1_matrices(n):
            add_scaled(acc, matrix_monomial(a).terms, (-1) ** abs_exponent(a, n, convention))
        out["diff_" + convention] = product - Polynomial(algebra, acc)
    return out
