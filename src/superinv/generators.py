"""Generator families for the invariant rings: the scalar products of every
family and their substitution maps (one function each, reading the
preserved form from `liealgebras.invariant_form`), the extra special-linear
generators, the orthosymplectic relative generators, and the
special-periplectic tensor and polynomial families.  Every quoted
special-periplectic sum over the square tableaux, printed or corrected, is
built by one function, `_quoted_sum`.

The special-periplectic shadows pair each route's symmetrized seed against
the semistandard words and then let the route's factors act on the
polynomials: the shadow map onto S(V*(x)W) is a gl(V)-module map, so this
equals the shadow of the constructive tensor, which is never built there."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from math import factorial

from .alphabet import (
    EVEN,
    IndexRange,
    SuperIndex,
    Word,
    all_words,
    ev,
    mutual_parity_count,
    od,
    parity_of_word,
)
from .coefficients import Coeff, add_scaled
from .invariants import SubstitutionMap
from .liealgebras import (
    AlgebraFamily,
    MatrixElement,
    abs_exponent,
    action_table,
    invariant_form,
    polynomial_images,
    t1_matrices,
    yminus_factors,
)
from .named_polynomials import P_t_rows, Z_combination, Z_of
from .polynomials import AlgebraDescriptor, Polynomial
from .tableaux import YoungTableau, enumerate_semistandard
from .tensors import (
    TensorElement,
    act_on_tensor,
    blocked_odds,
    operator_setup,
    repeated_evens,
    sl_invariant_element,
    split_cols_tableau,
    split_rows_tableau,
    symmetrize_element,
)


def scalar_product(
    tag: str, algebra: AlgebraDescriptor, s: SuperIndex, t: SuperIndex
) -> Polynomial:
    """The scalar product (v_s, v_t) of the family `tag`.

    For gl and sl: the sum over i of x[s,i] x*[i,t].  For osp, pe and spe:
    the sum over the pairs (a, b, c) of the invariant form of
    c (-1)^{p(s)p(b)} x*[a,s] x*[b,t].
    """
    index = algebra.index
    f = algebra.zero()
    if tag in ("gl", "sl"):
        for i in algebra.v_range:
            f.add_term((index("uv", s, i), index("vw", i, t)), 1)
        return f
    for a, (b, c) in invariant_form(tag, algebra.v_range).items():
        f.add_term((index("vw", a, s), index("vw", b, t)), -c if s.parity and b.parity else c)
    return f


def scalar_products(tag: str, algebra: AlgebraDescriptor) -> list[Polynomial]:
    """The basic invariant family: (v_r*, v_s) for every u-letter r and
    w-letter s for gl and sl, (v_s, v_t) for every pair s <= t of w-letters
    for osp, pe and spe."""
    if tag in ("gl", "sl"):
        pairs = itertools.product(algebra.u_range, algebra.w_range)
    elif tag in ("osp", "pe", "spe"):
        letters = algebra.w_range.indices()
        pairs = [(s, t) for a, s in enumerate(letters) for t in letters[a:]]
    else:
        raise ValueError(f"no scalar products for family {tag!r}")
    return [scalar_product(tag, algebra, s, t) for s, t in pairs]


def substitution_map(
    tag: str, source: AlgebraDescriptor, target: AlgebraDescriptor
) -> SubstitutionMap:
    """The substitution homomorphism onto the scalar products: the symbol of
    (r, s), z[r,s], q[r,s] or y[r,s], goes to `scalar_product(tag, target, r, s)`."""
    images = {
        idx: scalar_product(tag, target, g.row, g.col)
        for idx, g in enumerate(source.generators)
    }
    return SubstitutionMap(source, target, images)


# ---------------------------------------------------------------------------
# canonical projections from tensor invariants to polynomial invariants


def mixed_shadow(
    algebra: AlgebraDescriptor,
    element: TensorElement,
    I: Word,
    J: Word,
    hat: bool = False,
) -> Polynomial:
    """Image of an element of V-block x V*-block under the canonical algebra
    projection, paired against a u-word on the covariant block and a w-word
    on the dual block.  Each tensor word contributes
    Z_uv(I, plain letters) * Z_vw(dual letters, J).  With `hat` the words
    have the dual block first, and moving the covariant block across it
    costs the Koszul sign of the two block parities."""
    acc: dict = {}
    sig = element.signature
    for w, coeff in element.terms.items():
        plain = tuple(i for i, d in zip(w, sig) if not d)
        dual = tuple(i for i, d in zip(w, sig) if d)
        if len(plain) != len(I) or len(dual) != len(J):
            raise ValueError("pairing lengths do not match the word blocks")
        if hat and parity_of_word(plain) and parity_of_word(dual):
            coeff = -coeff
        left = Z_of(algebra, I, plain, family="uv")
        right = Z_of(algebra, dual, J, family="vw")
        add_scaled(acc, (left * right).terms, coeff)
    return Polynomial(algebra, acc)


def _dual_letters(element: TensorElement, length: int) -> list[tuple[Word, Coeff]]:
    """(letters, coefficient) for the words of a purely dual tensor of the
    given degree."""
    if not all(element.signature):
        raise ValueError("element must be purely dual")
    if len(element.signature) != length:
        raise ValueError("sequences must have equal length")
    return list(element.terms.items())


def nonzero_shadows(
    algebra: AlgebraDescriptor, weighted: list[tuple[Word, Coeff]], t: YoungTableau
) -> list[Polynomial]:
    """The nonzero shadows over the semistandard J: the sum of c * Z(I, J)
    over the (I, c) pairs, for every semistandard w-word J of t where it is
    not zero.  The words are read once for all J."""
    shadows = (
        Z_combination(algebra, weighted, J, "vw")
        for J in enumerate_semistandard(t, algebra.w_range)
    )
    return [f for f in shadows if f]


# ---------------------------------------------------------------------------
# special linear: the F families


@dataclass
class SlExtraGenerators:
    """Both extra families at level k."""

    plus: list[Polynomial]
    minus: list[Polynomial]


def sl_extra_generators(algebra: AlgebraDescriptor, k: int) -> SlExtraGenerators:
    """The degree-raising generators of the special-linear invariant ring:
    the canonical polynomial images of the two symmetrized tensor
    invariants, paired against semistandard u- and w-words.

    The plus family pairs the plain-block element (covariant block first)
    with column-split u-words and row-split w-words; the minus family pairs
    the hat element with the tableau roles swapped, as the block sizes
    force.
    """
    v_range = algebra.v_range
    u_range = algebra.u_range
    w_range = algebra.w_range
    setup = operator_setup(v_range, k)

    def shadows(u_tableau: YoungTableau, w_tableau: YoungTableau, hat: bool) -> list[Polynomial]:
        element = sl_invariant_element(v_range, k, hat=hat)
        pairs = itertools.product(
            enumerate_semistandard(u_tableau, u_range), enumerate_semistandard(w_tableau, w_range)
        )
        return [f for I, J in pairs if (f := mixed_shadow(algebra, element, I, J, hat))]

    return SlExtraGenerators(shadows(setup.s, setup.t, False), shadows(setup.t, setup.s, True))


def sl_extra_literal(algebra: AlgebraDescriptor, k: int) -> SlExtraGenerators:
    """Literal transcription of the quoted F sums (tilde-symmetrized factor
    pairs against the auxiliary middle words); kept for the errata diff
    against the canonical construction."""
    v_range = algebra.v_range
    u_range = algebra.u_range
    w_range = algebra.w_range
    setup = operator_setup(v_range, k)
    s, t = setup.s, setup.t
    words_L = list(all_words(v_range, setup.n * setup.m))
    heads, tails = [setup.Ik + L for L in words_L], [L + setup.Jk for L in words_L]

    plus: list[Polynomial] = []
    Js = list(enumerate_semistandard(t, w_range))
    rights = list(P_t_rows(algebra, t, tails, Js, "tilde", "vw"))
    for left_I in P_t_rows(algebra, s, enumerate_semistandard(s, u_range), heads, "tilde", "uv"):
        for j in range(len(Js)):
            acc: dict = {}
            for L, left, right_L in zip(words_L, left_I, rights):
                add_scaled(acc, (left * right_L[j]).terms, (-1) ** mutual_parity_count(L))
            if f := Polynomial(algebra, acc):
                plus.append(f)

    minus: list[Polynomial] = []
    Ihats = list(enumerate_semistandard(t, u_range))
    Jhats = list(enumerate_semistandard(s, w_range))
    lefts = list(P_t_rows(algebra, s, heads, Jhats, "plain", "vw"))
    for Ihat, right_I in zip(Ihats, P_t_rows(algebra, t, Ihats, tails, "plain", "uv")):
        p_ihat = parity_of_word(Ihat)
        for j, Jhat in enumerate(Jhats):
            p_jhat = parity_of_word(Jhat)
            acc = {}
            for L, left_L, right in zip(words_L, lefts, right_I):
                expo = mutual_parity_count(L) + parity_of_word(L) * (p_ihat + p_jhat)
                add_scaled(acc, (left_L[j] * right).terms, (-1) ** expo)
            if f := Polynomial(algebra, acc):
                minus.append(f)
    return SlExtraGenerators(plus, minus)


# ---------------------------------------------------------------------------
# orthosymplectic: the relative invariants R(J)


def _form_letters(
    algebra: AlgebraDescriptor, element: TensorElement, length: int
) -> list[tuple[Word, Coeff]]:
    """A covariant tensor under the form isomorphism: each word v_M becomes
    the partner letters M~ (`invariant_form`), its coefficient times their
    form coefficients, so that its projection against J is sum c * Z(M~, J)."""
    if any(element.signature):
        raise ValueError("element must be covariant")
    if len(element.signature) != length:
        raise ValueError("sequences must have equal length")
    form = invariant_form("osp", algebra.v_range)
    weighted = []
    for w, coeff in element.terms.items():
        pairs = [form[i] for i in w]
        weighted.append((tuple(b for b, _ in pairs), coeff * math.prod(c for _, c in pairs)))
    return weighted


def osp_relative_generators(
    algebra: AlgebraDescriptor, nabla: TensorElement
) -> list[Polynomial]:
    """R(J): the polynomial shadows of the constructive invariant, one per
    semistandard sequence J of w-letters over the column-split tableau."""
    s = operator_setup(algebra.v_range, 1).s
    return nonzero_shadows(algebra, _form_letters(algebra, nabla, s.size), s)


# ---------------------------------------------------------------------------
# special periplectic: the T2 tableaux and their tensor/polynomial families


@dataclass
class T2Datum:
    """One admissible square tableau: the sequence read down the columns,
    and its admissible matrix a (`t1_matrices`); the parity of the (i, j)
    entry is a[i,j] off the diagonal and 1 on it."""

    word: Word
    a: dict[tuple[int, int], int]


def t2_tableaux(n: int) -> list[T2Datum]:
    """Square tableaux with conjugate mirror entries and odd diagonal, one
    per admissible matrix a of `t1_matrices(n)`, in its order: j' sits at
    (i, j) and j at (j, i) where a[i,j] = 1."""
    out = []
    for a in t1_matrices(n):
        grid = {(i, i): od(i) for i in range(1, n + 1)}
        for (i, j), pick in a.items():
            if pick:
                grid[(i, j)], grid[(j, i)] = od(j), ev(j)
        word = tuple(grid[(i, j)] for j in range(1, n + 1) for i in range(1, n + 1))
        out.append(T2Datum(word, a))
    return out


def _t2_weights(datum: T2Datum, n: int, k: int) -> tuple[int, int, Coeff]:
    """(m(L), eps exponent, multiplicity m_k(L)) for one tableau.  Both m(L),
    over the even-numbered rows, and m_k(L), the product over the rows of
    (n+k)! / (n+k-l)!, read the row sums l of the parity matrix."""
    a = datum.a
    rows = range(1, n + 1)
    row_sums = [1 + sum(a[(i, j)] for j in rows if j != i) for i in rows]
    n_L = sum(1 for x in datum.word if x.parity == EVEN)
    eps_exp = abs_exponent(a, n, "corrected") + n_L
    mult = math.prod(factorial(n + k) // factorial(n + k - li) for li in row_sums)
    return sum(row_sums[1::2]), eps_exp, mult


def _quoted_sum(
    dims: IndexRange, t: YoungTableau, head: Word, tail: Word, level: int, m_times: int
) -> TensorElement:
    """e_t applied to the quoted sum over the square tableaux L of
    (-1)^{m_times m(L) + eps(L)} m_level(L) v*_{head + L + tail}: every
    quoted special-periplectic sum, printed or corrected, is built here."""
    n = dims.even_count
    terms = {}
    for datum in t2_tableaux(n):
        m_L, eps_exp, mult = _t2_weights(datum, n, level)
        terms[head + datum.word + tail] = (-1) ** (m_times * m_L + eps_exp) * mult
    return symmetrize_element(t, "plain", TensorElement(dims, (True,) * t.size, terms))


def xplus_factors(dims: IndexRange) -> list[MatrixElement]:
    """The raising-block generators E[i,j'] + E[j,i'] over pairs i <= j."""
    n = dims.even_count
    out = []
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            f = MatrixElement.unit(dims, ev(i), od(j))
            if i != j:
                f = f + MatrixElement.unit(dims, ev(j), od(i))
            out.append(f)
    return out


def _route_words(n: int, k: int, kind: str) -> tuple[YoungTableau, Word, Word, Word]:
    """A route at level k over gl(n|n): its tableau and the head, core and
    tail of its seed word, row-split with an all-odd core and an odd tail
    for "lower", column-split with an even head and an all-even core for
    "raise".  The quoted sums put the square tableaux in place of the core."""
    if kind == "lower":
        return split_rows_tableau(n, n, k), (), blocked_odds(n, n), blocked_odds(n, k)
    if kind == "raise":
        return split_cols_tableau(n, n, k), repeated_evens(n, k), repeated_evens(n, n), ()
    raise ValueError("kind must be 'lower' or 'raise'")


def spe_closed_form_element(
    dims: IndexRange, k: int, kind: str = "lower", convention: str = "printed"
) -> TensorElement:
    """The displayed sums over the square tableaux (`_quoted_sum`).

    kind "lower": coefficient (-1)^{k m(L)} eps(L) m_k(L) on v*_L x v*_{J_k},
    symmetrized by the row-split rectangle.  kind "raise": coefficient
    eps(L) m_0(L) with the even run in front, symmetrized by the column-split
    rectangle.  With convention "corrected" the tail-dependent sign
    (-1)^{k m(L)} is replaced by (-1)^{m(L)}, which is what the constructive
    route actually produces at n = 2.
    """
    t, head, _, tail = _route_words(dims.even_count, k, kind)
    level = k if kind == "lower" else 0
    return _quoted_sum(dims, t, head, tail, level, level if convention == "printed" else 1)


def _route(
    dims: IndexRange, k: int, kind: str
) -> tuple[YoungTableau, TensorElement, list[MatrixElement]]:
    """A constructive route at level k (`_route_words`): its tableau, its
    symmetrized seed and its factors, the lower-block or raising-block ones."""
    t, head, core, tail = _route_words(dims.even_count, k, kind)
    word = head + core + tail
    factors = yminus_factors(dims) if kind == "lower" else xplus_factors(dims)
    seed = symmetrize_element(t, "plain", TensorElement(dims, (True,) * len(word), {word: 1}))
    return t, seed, factors


def spe_constructive_element(
    family: AlgebraFamily, k: int, kind: str = "lower"
) -> TensorElement:
    """The two constructive routes: the product of the lower-block
    generators applied to the symmetrized all-odd word with an odd tail, or
    the product of the raising-block generators applied to the symmetrized
    all-even word with an even head.  The leftmost factor acts last."""
    _, out, factors = _route(family.dims, k, kind)
    for x in reversed(factors):
        out = act_on_tensor(x, out)
    return out


def spe_ppf_polynomials(
    algebra: AlgebraDescriptor, family: AlgebraFamily, k: int, sign_k: int
) -> list[Polynomial]:
    """Polynomial shadows of the constructive invariant tensors, one per
    semistandard w-word: level +k (k >= 0) pairs the lower-route tensor of
    degree n(n+k) against row-split-semistandard words, level -k pairs the
    raise-route tensor of degree n(n+k+1) against column-split ones.

    The shadow map is a gl(V)-module map, so the shadow of the constructive
    tensor is the route's factors acting, as derivations, on the shadow of
    its symmetrized seed.  The seed (70 words for the raise route at
    n = 2, k = 2, against 1,920 once the factors act) is paired against
    each J, and the factors then act on each polynomial, the leftmost
    last, each through one `action_table` built for all the polynomials;
    the constructive tensor is never built.

    Level +0 is the shadow of the bare lower element; the quoted generator
    list starts at level one and misses it, but the oracle requires it (the
    first relative invariants appear at degree n^2).
    """
    if sign_k > 0:
        t, seed, factors = _route(family.dims, k, "lower")
    else:
        if k < 1:
            raise ValueError("negative levels start at one")
        t, seed, factors = _route(family.dims, k + 1, "raise")
    shadows = nonzero_shadows(algebra, _dual_letters(seed, t.size), t)
    for x in reversed(factors):
        table = action_table([x], algebra)
        shadows = [polynomial_images(table, f)[0] for f in shadows]
    return [f for f in shadows if f]


def spe_ppf_literal(
    algebra: AlgebraDescriptor, k: int, sign_k: int
) -> list[Polynomial]:
    """Literal transcription of the quoted level-k sums (printed signs and
    the level shift to k-1 weights); kept for the errata diff.

    Each quoted sum is c(L) P_t(L + tail, J) summed over the square tableaux
    L.  P_t(I, J) is the pairing of e_t v*_I against J, so the sum is the
    pairing of e_t T with T the sum of c(L) v*_{L + tail} (`_quoted_sum`):
    the symmetrizer is applied once per level and the result is paired
    against every J.
    """
    v_range = algebra.v_range
    n = v_range.even_count
    if sign_k > 0:
        t = split_rows_tableau(n, n, k)
        symmetrized = _quoted_sum(v_range, t, (), blocked_odds(n, k), k - 1, k - 1)
    else:
        t = split_rows_tableau(n, n, k + 1)
        symmetrized = _quoted_sum(v_range, t, (), repeated_evens(n, k + 1), 0, 0)
    return nonzero_shadows(algebra, _dual_letters(symmetrized, t.size), t)
