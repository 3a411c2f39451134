"""Catalog of verifiable claims about the invariant rings.

Each entry runs a batch of exact checks and returns typed records.  A
record's status is "pass" or "fail" for hard assertions; "errata" marks a
documented divergence between a quoted closed-form expression and the
constructive computation (errata never affect process exit status).  One
function, `_quoted`, writes the record of every quoted formula: "pass"
when it agrees with the constructive object, else "errata".  Each check
kind has one builder too: `_invariance`, `_relative` (invariant under the
subalgebra, moved by `gl`), `_independence`, `_generation_records` and
`_relation_records`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Callable, Optional

from .alphabet import IndexRange, ev
from .errors import CapExceeded, InvalidOptions
from .liealgebras import (
    AlgebraFamily,
    MatrixElement,
    build_family,
    invariant,
    yminus_expansion,
)
from .linalg import rank_rows
from .invariants import (
    DEFAULT_MONOMIAL_CAP,
    algebra_for,
    check_generation,
    check_monomial_cap,
    relation_kernel_check,
)
from .generators import (
    osp_relative_generators,
    scalar_products,
    sl_extra_generators,
    sl_extra_literal,
    spe_closed_form_element,
    spe_constructive_element,
    spe_ppf_literal,
    spe_ppf_polynomials,
    substitution_map,
)
from .named_polynomials import P_t_rows, Pf_t, PPf_t, ppf_tableau
from .polynomials import Polynomial, make_sym_square_algebra, make_uw_algebra
from .tableaux import Partition, enumerate_partitions, enumerate_semistandard, fill_rows
from .tensors import (
    act_on_tensor,
    invariant_operator,
    marked_tableau_operator,
    nabla_closed_form_report,
    nabla_construct,
    operator_setup,
    sl_invariant_element,
    split_cols_tableau,
    split_rows_tableau,
    TensorElement,
)
from .permutations import check_symmetrizer_cap
from .alphabet import all_words


@dataclass
class CheckRecord:
    id: str
    claim_ref: str
    status: str
    dims: Optional[dict] = None
    witness: Optional[str] = None
    errata: Optional[dict] = None
    detail: Optional[dict] = None

    def as_dict(self) -> dict:
        return {f.name: v for f in fields(self) if (v := getattr(self, f.name)) is not None}


@dataclass(frozen=True)
class ClaimOptions:
    dims: tuple[int, int] = (1, 1)
    pqkl: tuple[int, int, int, int] = (1, 1, 1, 1)
    udims: tuple[int, int] = (1, 1)
    wdims: tuple[int, int] = (1, 1)
    max_degree: int = 4
    n: int = 2
    k: int = 1
    monomial_cap: int = DEFAULT_MONOMIAL_CAP


def _record(rid: str, ok: bool, **found) -> CheckRecord:
    """A "pass" or "fail" record; its claim is the id's first field."""
    return CheckRecord(rid, rid.split(":")[0], "pass" if ok else "fail", **found)


def _quoted(rid: str, ok: bool, issue: str, detail: Optional[dict] = None, **found) -> CheckRecord:
    """The record of a quoted formula checked against a constructive object:
    "pass" with `detail` when they agree, else "errata" with the issue and
    what was found.  The one place a record gets the status "errata"."""
    if ok:
        return _record(rid, True, detail=detail)
    return CheckRecord(rid, rid.split(":")[0], "errata", errata={"issue": issue, **found})


def _invariance(
    rid: str,
    family: AlgebraFamily,
    items: list,
    premise: bool = True,
    detail: Optional[dict] = None,
) -> CheckRecord:
    """The items are invariant under the family, and the caller's premise
    holds: that an element is nonzero, or that a family has members where
    the claim needs them (a family of scalar products may be empty)."""
    return _record(rid, premise and invariant(family, items), detail=detail)


def _relative(
    base: str, family: AlgebraFamily, el: TensorElement, name: str, detail: Optional[dict] = None
) -> list[CheckRecord]:
    """A relative invariant: nonzero and invariant under the family (the
    record `name`), and moved by the diagonal unit on the first even letter,
    so not a general-linear invariant."""
    weight = MatrixElement.unit(family.dims, ev(1), ev(1))
    moved = bool(el) and not act_on_tensor(weight, el).is_zero()
    return [
        _invariance(f"{base}:{name}", family, [el], bool(el), detail),
        _record(base + ":not-gl-invariant", moved),
    ]


def _independence(rid: str, members: list[Polynomial]) -> CheckRecord:
    """The members are linearly independent: their span has full rank."""
    rank = rank_rows(f.terms for f in members)
    return _record(rid, rank == len(members), dims={"oracle": len(members), "generated": rank})


def _generation_records(
    prefix: str, family: AlgebraFamily, algebra, gens, degrees, cap: int, gap: bool = False
) -> list[CheckRecord]:
    """One record per degree d, `prefix:deg<d>`: the generated subspace
    equals the oracle's or, with `gap`, is a strict subspace of it; the
    witness is the first oracle vector outside the generated span."""
    return [
        _record(
            f"{prefix}:deg{v.degree}",
            (v.verdict == "strict-subspace" and v.witness is not None) if gap else v.equal,
            dims={"oracle": v.oracle_dim, "generated": v.generated_dim},
            witness=str(v.witness) if v.witness is not None else None,
        )
        for v in check_generation(family, algebra, gens, degrees, cap)
    ]


def _relation_records(
    rid: str, subs, rels: list, degree: int, opts: ClaimOptions
) -> list[CheckRecord]:
    """The relations substitute to zero, and they span the kernel of the
    substitution map at their degree."""
    rep = relation_kernel_check(subs, rels, degree, monomial_cap=opts.monomial_cap)
    return [
        _record(
            rid + ":substitution",
            rep.all_substitute_to_zero,
            detail={"relations": rep.relations_checked},
        ),
        _record(
            rid + ":kernel",
            rep.kernel_matches_span,
            dims={"oracle": rep.kernel_dim, "generated": rep.relation_span_dim},
        ),
    ]


def run_t21(opts: ClaimOptions) -> list[CheckRecord]:
    """Scalar products generate the general-linear invariants."""
    p, q, k, l = opts.pqkl
    family = build_family("gl", IndexRange(*opts.dims))
    algebra = algebra_for(family, p, q, k, l)
    gens = [g for g in scalar_products("gl", algebra) if g]
    degrees = range(1, opts.max_degree + 1)
    return _generation_records(
        f"T2.1:gl{opts.dims}", family, algebra, gens, degrees, opts.monomial_cap
    )


def run_t22(opts: ClaimOptions) -> list[CheckRecord]:
    """Rectangle relations span the kernel of the scalar-product map."""
    n, m = opts.dims
    family = build_family("gl", IndexRange(*opts.dims))
    U, W = IndexRange(*opts.udims), IndexRange(*opts.wdims)
    target = algebra_for(family, W.even_count, W.odd_count, U.even_count, U.odd_count)
    source = make_uw_algebra(U, W)
    subs = substitution_map("gl", source, target)
    shape = Partition(((m + 1),) * (n + 1))
    t = fill_rows(shape)
    check_monomial_cap(source, shape.size, opts.monomial_cap)
    Js = list(enumerate_semistandard(t, W))
    rows = P_t_rows(source, t, enumerate_semistandard(t, U), Js, family="zuw")
    rels = [f for row in rows for f in row if f]
    rid = f"T2.2:gl{opts.dims}:U{opts.udims}:W{opts.wdims}"
    return _relation_records(rid, subs, rels, shape.size, opts)


def _tensor_invariance_records(claim: str, opts: ClaimOptions, hat: bool) -> list[CheckRecord]:
    dims = IndexRange(*opts.dims)
    sl = build_family("sl", dims)
    el = sl_invariant_element(dims, opts.k, hat=hat)
    return _relative(f"{claim}:dims{opts.dims}:k{opts.k}", sl, el, "sl-invariant")


def run_t33(opts: ClaimOptions) -> list[CheckRecord]:
    """The hat-side symmetrized canonical element is a special-linear
    invariant but not a general-linear one."""
    return _tensor_invariance_records("T3.3", opts, hat=True)


def run_t34(opts: ClaimOptions) -> list[CheckRecord]:
    return _tensor_invariance_records("T3.4", opts, hat=False)


def run_t36(opts: ClaimOptions) -> list[CheckRecord]:
    """Scalar products alone must leave a gap at the extra generators'
    degree; adding both extra families closes every degree up to the bound."""
    p, q, k, l = opts.pqkl
    vdims = opts.dims
    family = build_family("sl", IndexRange(*vdims))
    algebra = algebra_for(family, p, q, k, l)
    n, m = vdims
    f_degree = n * (opts.k + m) + m * (n + opts.k)
    degrees = range(1, opts.max_degree + 1)
    for d in [f_degree, *degrees]:
        check_monomial_cap(algebra, d, opts.monomial_cap)
    base = [g for g in scalar_products("sl", algebra) if g]
    extra = sl_extra_generators(algebra, opts.k)
    prefix, cap = f"T3.6:sl{vdims}", opts.monomial_cap
    records = _generation_records(
        prefix + ":scalars-only", family, algebra, base, [f_degree], cap, gap=True
    )
    records.append(
        _invariance(
            prefix + ":extra-family-invariance",
            family,
            extra.plus + extra.minus,
            bool(extra.plus) and bool(extra.minus),
            {"plus": len(extra.plus), "minus": len(extra.minus)},
        )
    )
    gens = base + extra.plus + extra.minus
    records += _generation_records(prefix, family, algebra, gens, degrees, cap)
    # errata: the quoted sum for the minus family differs from the canonical
    # projection (the plus family agrees literally)
    literal = sl_extra_literal(algebra, opts.k)
    if not invariant(family, literal.minus):
        records.append(
            _quoted(
                prefix + ":literal-minus-formula",
                False,
                "the quoted sign factor on the minus family fails invariance; "
                "the canonical projection of the hat-side tensor invariant is "
                "used instead",
                literal_members=len(literal.minus),
            )
        )
    return records


def _ratio(a: TensorElement, b: TensorElement) -> Optional[Fraction]:
    """The r with a = r b, read off a's first word: 1 when both are zero,
    None when there is no such r or just one of them is zero."""
    if a.is_zero() or b.is_zero():
        return Fraction(1) if a.is_zero() and b.is_zero() else None
    wd = next(iter(a.terms))
    c = b.terms.get(wd)
    if c is None:
        return None
    r = Fraction(a.terms[wd], c)
    return r if b.scale(r) == a else None


def _uniform(ratios: dict[str, str]) -> bool:
    """At least one word was compared, and all share one ratio (no mismatch)."""
    values = set(ratios.values())
    return len(values) == 1 and not values & {"zero-mismatch", "shape-mismatch"}


def run_t38(opts: ClaimOptions) -> list[CheckRecord]:
    """Marked-tableau closed form versus the first-principles operator,
    under the quoted sign data and under the corrected convention that adds
    the contraction's head-parity sign."""
    dims = IndexRange(*opts.dims)
    setup = operator_setup(dims, 1)
    # per convention, the ratio of the operator's image to the closed form's
    # for each word where either is nonzero
    ratios: dict[str, dict[str, str]] = {"corrected": {}, "printed": {}}
    for L in all_words(dims, setup.m * (setup.n + 1)):
        direct = invariant_operator(setup, TensorElement.from_word(dims, L))
        key = "".join(str(x) for x in L)
        for convention, found in ratios.items():
            marked = marked_tableau_operator(setup, L, convention)
            if direct.is_zero() and marked.is_zero():
                continue
            if direct.is_zero() != marked.is_zero():
                found[key] = "zero-mismatch"
            elif (r := _ratio(direct, marked)) is None:
                found[key] = "shape-mismatch"
            else:
                found[key] = str(r)
    corrected, printed = ratios["corrected"], ratios["printed"]
    base = f"T3.8:dims{opts.dims}"
    return [
        _record(
            base + ":corrected-convention",
            _uniform(corrected),
            detail={"words_compared": len(corrected)},
        ),
        _quoted(
            base + ":printed-signs",
            _uniform(printed),
            "the quoted sign data is not a single global constant across word "
            "contents; adding the contraction's head-parity sign makes it one; "
            "per-word ratios recorded",
            detail={"ratios": printed},
            ratios=printed,
        ),
    ]


def _scalar_product_records(
    claim: str, tag: str, opts: ClaimOptions, degrees
) -> list[CheckRecord]:
    """The family's scalar products are invariant and generate its
    invariants in `degrees`."""
    family = build_family(tag, IndexRange(*opts.dims))
    p, q = opts.wdims
    algebra = algebra_for(family, p, q, 0, 0)
    gens = [g for g in scalar_products(tag, algebra) if g]
    prefix = f"{claim}:{tag}{opts.dims}"
    invariance = _invariance(
        f"{prefix}:W{opts.wdims}:invariance", family, gens, detail={"generators": len(gens)}
    )
    return [invariance] + _generation_records(
        prefix, family, algebra, gens, degrees, opts.monomial_cap
    )


def run_t43(opts: ClaimOptions) -> list[CheckRecord]:
    """Orthosymplectic scalar products: invariance, and generation of the
    even-degree (extension-invariant) part; odd-degree gaps belong to the
    relative theory."""
    return _scalar_product_records("T4.3", "osp", opts, range(2, opts.max_degree + 1, 2))


def run_t44(opts: ClaimOptions) -> list[CheckRecord]:
    """Even-Pfaffian families over even-row shapes are linearly independent;
    a shape that misses the W hook has no member and no record."""
    W = IndexRange(*opts.wdims)
    sq = make_sym_square_algebra(W, twisted=False)
    records = []
    for size in range(2, opts.max_degree + 1, 2):
        for shape in enumerate_partitions(size):
            if any(part % 2 for part in shape.parts) or not shape.fits_hook(*opts.wdims):
                continue
            t = fill_rows(shape)
            fam = [Pf_t(sq, t, I) for I in enumerate_semistandard(t, W)]
            records.append(_independence(f"T4.4:W{opts.wdims}:shape{shape}", fam))
    return records


def _t45_shape(dims: tuple[int, int]) -> Partition:
    """The rectangle (2r+2)^(n+1) of T4.5 at --dims n,m, with r = m // 2."""
    n, m = dims
    return Partition((2 * (m // 2) + 2,) * (n + 1))


def run_t45(opts: ClaimOptions) -> list[CheckRecord]:
    """Rectangle Pfaffians generate the relation ideal of the
    orthosymplectic scalar products."""
    family = build_family("osp", IndexRange(*opts.dims))
    W = IndexRange(*opts.wdims)
    target = algebra_for(family, W.even_count, W.odd_count, 0, 0)
    source = make_sym_square_algebra(W, twisted=False)
    subs = substitution_map("osp", source, target)
    shape = _t45_shape(opts.dims)
    t = fill_rows(shape)
    # each quadratic symbol absorbs two word letters
    check_monomial_cap(source, shape.size // 2, opts.monomial_cap)
    rels = [f for I in enumerate_semistandard(t, W) if (f := Pf_t(source, t, I))]
    rid = f"T4.5:osp{opts.dims}:W{opts.wdims}"
    return _relation_records(rid, subs, rels, shape.size // 2, opts)


def run_t51(opts: ClaimOptions) -> list[CheckRecord]:
    """The constructive relative invariant: nonzero, annihilated by the
    orthosymplectic family, not by the general linear one; the quoted
    closed-form coefficients are compared and recorded."""
    dims = IndexRange(*opts.dims)
    family = build_family("osp", dims)
    nab = nabla_construct(dims)
    base = f"T5.1:osp{opts.dims}"
    records = _relative(base, family, nab, "nonzero-invariant", {"terms": len(nab.terms)})
    report = nabla_closed_form_report(dims)
    records.append(
        _quoted(
            base + ":closed-form-coefficients",
            report.get("single_global_ratio", False),
            "closed-form coefficients (undefined summation bound read as zero, "
            "exclusion set as empty) do not fit the constructive invariant",
            report=report,
        )
    )
    return records


def run_t52(opts: ClaimOptions) -> list[CheckRecord]:
    """Constructive relative generators: the shadows of the invariant tensor
    are invariant and, together with the scalar products, generate through
    the degree bound."""
    dims = IndexRange(*opts.dims)
    family = build_family("osp", dims)
    p, q = opts.wdims
    algebra = algebra_for(family, p, q, 0, 0)
    degrees = range(1, opts.max_degree + 1)
    for d in degrees:
        check_monomial_cap(algebra, d, opts.monomial_cap)
    nab = nabla_construct(dims)
    relative = osp_relative_generators(algebra, nab)
    records = [
        _invariance(
            f"T5.2:osp{opts.dims}:W{opts.wdims}:relative-invariance",
            family,
            relative,
            bool(relative),
            {"generators": len(relative)},
        )
    ]
    gens = [g for g in scalar_products("osp", algebra) if g] + relative
    return records + _generation_records(
        f"T5.2:osp{opts.dims}", family, algebra, gens, degrees, opts.monomial_cap
    )


def run_t62(opts: ClaimOptions) -> list[CheckRecord]:
    """Periplectic scalar products: invariance and generation."""
    return _scalar_product_records("T6.2", "pe", opts, range(1, opts.max_degree + 1))


def run_t631(opts: ClaimOptions) -> list[CheckRecord]:
    """Periplectic Pfaffian families over the smallest hook shapes are
    linearly independent; a shape that misses the W hook has no member and
    no record."""
    W = IndexRange(*opts.wdims)
    esq = make_sym_square_algebra(W, twisted=True)
    records = []
    for alphas in [(1,), (2,)]:
        t = ppf_tableau(alphas)
        if not t.shape.fits_hook(*opts.wdims):
            continue
        fam = [PPf_t(esq, t, I) for I in enumerate_semistandard(t, W)]
        records.append(_independence(f"T6.3.1:W{opts.wdims}:shape{t.shape}", fam))
    return records


def _t632_tableau(n: int):
    """The hook tableau of T6.3.2 at pe(n|n), a `YoungTableau`: alphas
    n+1, n, ..., 1."""
    return ppf_tableau(tuple(range(n + 1, 0, -1)))


def run_t632(opts: ClaimOptions) -> list[CheckRecord]:
    """Rectangle periplectic Pfaffians generate the relation ideal."""
    n = opts.dims[0]
    family = build_family("pe", IndexRange(n, n))
    W = IndexRange(*opts.wdims)
    target = algebra_for(family, W.even_count, W.odd_count, 0, 0)
    source = make_sym_square_algebra(W, twisted=True)
    subs = substitution_map("pe", source, target)
    t = _t632_tableau(n)
    check_monomial_cap(source, t.size // 2, opts.monomial_cap)
    rels = [f for I in enumerate_semistandard(t, W) if (f := PPf_t(source, t, I))]
    rid = f"T6.3.2:pe({n}|{n}):W{opts.wdims}"
    return _relation_records(rid, subs, rels, t.size // 2, opts)


# L7.1 expands 2^(n(n-1)/2) terms: 32,768 at n = 6, about 2M at n = 7
YMINUS_TERM_CAP = 2**15


def run_l71(opts: ClaimOptions) -> list[CheckRecord]:
    """Expansion of the lower-block product: term count, and the signed sum
    over admissible matrices under the literal and corrected conventions."""
    n = opts.n
    expected_terms = 2 ** (n * (n - 1) // 2)
    if expected_terms > YMINUS_TERM_CAP:
        raise CapExceeded("lower-block product", expected_terms, YMINUS_TERM_CAP)
    rep = yminus_expansion(n)
    base = f"L7.1:n{n}"
    literal_diff = rep["diff_literal"]
    return [
        _record(
            base + ":term-count",
            rep["term_count"] == expected_terms,
            dims={"oracle": expected_terms, "generated": rep["term_count"]},
        ),
        _record(
            base + ":corrected-convention",
            rep["diff_corrected"].is_zero(),
            detail={"diff_terms": len(rep["diff_corrected"].terms)},
        ),
        _quoted(
            base + ":literal-convention",
            literal_diff.is_zero(),
            "the stated recursion (zero base case, whole-matrix lower count per "
            "level, cubic constant) disagrees with the product expansion; the "
            "corrected convention (base equal to the lower entry, last-row "
            "count per level, crossing constant) matches exactly",
            mismatched_terms=len(literal_diff.terms),
        ),
    ]


def run_t72(opts: ClaimOptions) -> list[CheckRecord]:
    """Constructive special-periplectic tensor invariants, with the quoted
    closed-form coefficients compared under both sign conventions."""
    n, k = opts.n, opts.k
    dims = IndexRange(n, n)
    family = build_family("spe", dims)
    records = []
    for kind in ("lower", "raise"):
        w = spe_constructive_element(family, k, kind)
        base = f"T7.2:spe({n}|{n}):k{k}:{kind}"
        corrected = spe_closed_form_element(dims, k, kind, "corrected")
        printed = spe_closed_form_element(dims, k, kind, "printed")
        records += [
            _invariance(
                base + ":constructive-invariant", family, [w], bool(w), {"terms": len(w.terms)}
            ),
            _record(base + ":corrected-coefficients", _ratio(w, corrected) is not None),
            _quoted(
                base + ":printed-coefficients",
                _ratio(w, printed) is not None,
                "the tail-dependent sign exponent does not match the "
                "constructive element; replacing it with the plain row-sum "
                "parity makes the coefficients exact",
            ),
        ]
    return records


def run_t73(opts: ClaimOptions) -> list[CheckRecord]:
    """Polynomial shadows of the special-periplectic invariants are
    invariant; the level tower closes the graded gaps over the all-odd
    letter space; the quoted level-shifted sums are compared as errata."""
    n, k = opts.n, opts.k
    dims = IndexRange(n, n)
    family = build_family("spe", dims)
    p, q = opts.wdims
    algebra = algebra_for(family, p, q, 0, 0)
    # every symmetrizer the run expands, before the first one and in the
    # run's order: level +k, level -k (the seed, then the literal
    # family), then the tower's levels below k
    expanded = [split_rows_tableau(n, n, k), split_cols_tableau(n, n, k + 1)]
    expanded += [split_rows_tableau(n, n, level) for level in [k + 1, *range(k)]]
    for t in expanded:
        check_symmetrizer_cap(t)
    # generation tower over an all-odd letter space: scalars at degree 2,
    # then one new level per even degree up to n(n+k); its oracle's caps too
    # are checked before the first construction
    tower_alg = algebra_for(family, 0, n, 0, 0)
    degrees = list(range(2, n * (n + k) + 1, 2))
    for d in degrees:
        check_monomial_cap(tower_alg, d, opts.monomial_cap)
    records = []
    for sign_k in (1, -1):
        fam = spe_ppf_polynomials(algebra, family, k, sign_k)
        base = f"T7.3:spe({n}|{n}):W{opts.wdims}:k{sign_k * k:+d}"
        records.append(
            _invariance(base + ":family-invariance", family, fam, detail={"members": len(fam)})
        )
        literal = spe_ppf_literal(algebra, k, sign_k)
        if literal and not invariant(family, literal):
            records.append(
                _quoted(
                    base + ":literal-formula",
                    False,
                    "the quoted level-shifted coefficients fail invariance; the "
                    "canonical shadows of the constructive tensors are used "
                    "instead",
                    literal_members=len(literal),
                )
            )
    gens = [g for g in scalar_products("spe", tower_alg) if g]
    for level in range(0, k + 1):
        gens.extend(spe_ppf_polynomials(tower_alg, family, level, 1))
    tower = f"T7.3:spe({n}|{n}):W(0, {n}):tower"
    return records + _generation_records(
        tower, family, tower_alg, gens, degrees, opts.monomial_cap
    )


@dataclass(frozen=True)
class Claim:
    """A catalog entry: the runner, its default options, and the least
    options the claim is defined on (None: the runner does not read it)."""

    run: Callable[[ClaimOptions], list[CheckRecord]]
    defaults: ClaimOptions = ClaimOptions()
    min_dims: tuple[int, int] = (0, 0)
    min_n: Optional[int] = None
    min_k: Optional[int] = None
    min_max_degree: int = 0


# Each record gives the defaults that differ from ClaimOptions'.  The
# floors: at k = 0 the T3.3/T3.4 element is a general-linear invariant and
# the T3.6 extra generators have no extra rows (at --dims 0,m their degree
# is 0).  The split tableaux of T3.6 and T3.8 have one column per odd
# letter, and the T5 constructions fill their rows with even letters.
# T3.3 and T3.4 also need an even letter: their not-gl-invariant check acts
# with the diagonal unit on the first even letter.  Every record of T2.1
# and T4.4 is one degree's, so below their least --max-degree they would
# check nothing.
CATALOG: dict[str, Claim] = {
    "T2.1": Claim(run_t21, ClaimOptions(max_degree=3), min_max_degree=1),
    "T2.2": Claim(run_t22),
    "T3.3": Claim(run_t33, min_dims=(1, 1), min_k=1),
    "T3.4": Claim(run_t34, min_dims=(1, 1), min_k=1),
    "T3.6": Claim(run_t36, min_dims=(0, 1), min_k=1),
    "T3.8": Claim(run_t38, min_dims=(0, 1)),
    "T4.3": Claim(run_t43, ClaimOptions(dims=(1, 2), wdims=(2, 1))),
    "T4.4": Claim(run_t44, ClaimOptions(wdims=(2, 1)), min_max_degree=2),
    "T4.5": Claim(run_t45, ClaimOptions(dims=(1, 2), wdims=(2, 1))),
    "T5.1": Claim(run_t51, ClaimOptions(dims=(1, 2)), min_dims=(1, 1)),
    "T5.2": Claim(run_t52, ClaimOptions(dims=(1, 2), wdims=(1, 0)), min_dims=(1, 1)),
    "T6.2": Claim(run_t62, ClaimOptions(wdims=(2, 1))),
    "T6.3.1": Claim(run_t631, ClaimOptions(wdims=(2, 1))),
    "T6.3.2": Claim(run_t632, ClaimOptions(wdims=(2, 1))),
    "L7.1": Claim(run_l71, min_n=2),
    "T7.2": Claim(run_t72, min_n=2, min_k=0),
    "T7.3": Claim(run_t73, ClaimOptions(wdims=(2, 2)), min_n=2, min_k=1),
}

KNOWN_CLAIMS = list(CATALOG)


def claim_key(theorem_id: str) -> str:
    """The catalog id of `theorem_id`, which may end in `(constructive)`;
    KeyError for an id outside the catalog."""
    key = theorem_id.strip().removesuffix("(constructive)")
    if key not in CATALOG:
        raise KeyError(f"unknown claim id {theorem_id!r}")
    return key


def validate_options(key: str, opts: ClaimOptions) -> None:
    """Raise InvalidOptions when the options lie outside the claim's range."""
    claim = CATALOG[key]
    if opts.max_degree < claim.min_max_degree:
        raise InvalidOptions(
            f"needs --max-degree >= {claim.min_max_degree}, got {opts.max_degree}:"
            " no check would run"
        )
    even, odd = opts.dims
    even_min, odd_min = claim.min_dims
    if even < even_min or odd < odd_min:
        raise InvalidOptions(f"needs --dims of at least {even_min},{odd_min}, got --dims {even},{odd}")
    # osp(2r|0) = so(2r) contains -1, so its determinant-type invariants
    # have even degree 2r and are not polynomials in the scalar products
    if key == "T4.3" and odd == 0 and even >= 2 and even % 2 == 0:
        raise InvalidOptions(
            f"needs --dims n,m with m > 0 or n odd: osp({even}|0) = so({even}) has"
            f" determinant-type invariants beyond the scalar products, got --dims {even},{odd}"
        )
    if claim.min_n is not None and opts.n < claim.min_n:
        raise InvalidOptions(f"needs --n >= {claim.min_n}, got {opts.n}")
    if claim.min_k is not None and opts.k < claim.min_k:
        raise InvalidOptions(f"needs --k >= {claim.min_k}, got {opts.k}")
    # with no U or W letter there is no generator and no filling, so every
    # record would be vacuous; the W-letter claims below refuse 0,0 through
    # their hook checks
    if key == "T2.2":
        for name in ("udims", "wdims"):
            if getattr(opts, name) == (0, 0):
                raise InvalidOptions(
                    f"needs --{name} with a letter, got --{name} 0,0: no check would run"
                )
    # each family pairs semistandard words of a split tableau, and a shape
    # has semistandard fillings over the (e|o) letters iff it fits that hook
    if key == "T3.6":
        p, q, k, l = opts.pqkl
        shapes = [f(even, odd, opts.k).shape for f in (split_cols_tableau, split_rows_tableau)]
        if not all(shape.fits_hook(e, o) for shape in shapes for e, o in ((k, l), (p, q))):
            raise InvalidOptions(
                "needs --dims and --pqkl whose split tableaux fit both the u- and the w-hook,"
                f" or an extra family is empty, got --dims {even},{odd} --pqkl {p},{q},{k},{l}"
            )
    if key == "T5.2":
        p, q = opts.wdims
        if not split_cols_tableau(even, odd, 1).shape.fits_hook(p, q):
            raise InvalidOptions(
                "needs --dims and --wdims whose column-split tableau fits the w-hook,"
                f" or the relative family is empty, got --dims {even},{odd} --wdims {p},{q}"
            )
    # S^2 W spans the scalar products, and each T4.4 and T6.3.1 shape holds the row (2)
    if key in ("T4.3", "T4.4", "T6.2", "T6.3.1") and not Partition((2,)).fits_hook(*opts.wdims):
        p, q = opts.wdims
        raise InvalidOptions(
            "needs --wdims whose hook fits the row (2), or every family is empty,"
            f" got --wdims {p},{q}"
        )
    if key in ("T4.5", "T6.3.2"):
        p, q = opts.wdims
        shape = _t45_shape(opts.dims) if key == "T4.5" else _t632_tableau(even).shape
        if not shape.fits_hook(p, q):
            raise InvalidOptions(
                f"needs --dims and --wdims whose relation tableau {shape} fits the w-hook,"
                f" or the relation family is empty, got --dims {even},{odd} --wdims {p},{q}"
            )
    if key == "T7.3":
        n, k = opts.n, opts.k
        p, q = opts.wdims
        shapes = [split_rows_tableau(n, n, k).shape, split_cols_tableau(n, n, k + 1).shape]
        if not all(shape.fits_hook(p, q) for shape in shapes):
            raise InvalidOptions(
                "needs --wdims whose hook fits the level +k and -k tableaux of --n and --k,"
                f" or a level family is empty, got --wdims {p},{q} --n {n} --k {k}"
            )


def run_claim(theorem_id: str, opts: Optional[ClaimOptions] = None) -> list[CheckRecord]:
    key = claim_key(theorem_id)
    claim = CATALOG[key]
    if opts is None:
        opts = claim.defaults
    validate_options(key, opts)
    return claim.run(opts)
