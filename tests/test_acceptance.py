"""Acceptance suite: one test per criterion, each printing a pass/fail line.

All arithmetic is exact; every comparison is equality of integers or rational
vectors, with no tolerances anywhere.  Run with `pytest tests/test_acceptance.py -v -s`
to see the per-criterion lines.
"""

import random
import time
from fractions import Fraction

import pytest

from superinv.alphabet import IndexRange
from superinv.claims import ClaimOptions, run_claim
from superinv.errors import InvalidOptions
from superinv.generators import (
    scalar_products,
    spe_closed_form_element,
    spe_constructive_element,
    t2_tableaux,
)
from superinv.invariants import algebra_for, check_generation
from superinv.liealgebras import act_on_polynomial, build_family, yminus_expansion
from superinv.permutations import (
    Permutation,
    cocycle,
    young_symmetrizer,
)
from superinv.polynomials import monomials_of_degree, make_uw_algebra, Polynomial
from superinv.tableaux import count_semistandard, enumerate_partitions, enumerate_standard_tableaux
from superinv.tensors import act_on_tensor, nabla_closed_form_report
from reference import act_on_word
from test_generators import t2_filter_oracle


def report(name: str, ok: bool, extra: str = "") -> None:
    line = f"{name}: {'PASS' if ok else 'FAIL'}"
    if extra:
        line += f"  [{extra}]"
    print(line)
    assert ok, name


PQ_CHOICES = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]


def test_ac1_gl_generation():
    """Scalar products generate every general-linear invariant space."""
    t0 = time.time()
    checked = 0
    for dims in [(1, 0), (1, 1), (2, 1)]:
        fam = build_family("gl", IndexRange(*dims))
        for p, q in PQ_CHOICES:
            for k, l in PQ_CHOICES:
                algebra = algebra_for(fam, p, q, k, l)
                gens = [g for g in scalar_products("gl", algebra) if g]
                verdicts = check_generation(fam, algebra, gens, [1, 2, 3, 4])
                for v in verdicts:
                    assert v.equal, (dims, (p, q, k, l), v.degree, v.oracle_dim, v.generated_dim)
                    checked += 1
    report(
        "AC-1 gl generation (3 algebras x 36 sectors x degrees 1..4)",
        checked == 3 * 36 * 4,
        f"{checked} comparisons, {time.time() - t0:.1f}s",
    )


def test_ac2_gl_relations():
    """Rectangle relation polynomials substitute to zero and span the kernel."""
    t0 = time.time()
    ud = [(1, 0), (2, 0), (1, 1), (0, 1), (0, 2), (2, 1), (1, 2), (2, 2)]
    cases = 0
    for dims in [(1, 0), (1, 1)]:
        for udims in ud:
            for wdims in ud:
                opts = ClaimOptions(dims=dims, udims=udims, wdims=wdims)
                records = run_claim("T2.2", opts)
                assert all(r.status == "pass" for r in records), (dims, udims, wdims)
                cases += 1
    report(
        "AC-2 gl relation ideal (rectangle relations, exact kernels)",
        cases == 2 * len(ud) ** 2,
        f"{cases} configurations, {time.time() - t0:.1f}s",
    )


def test_ac3_dimension_identity():
    """Graded dimension of the two-space symmetric algebra equals the sum of
    products of semistandard counts over shapes."""
    t0 = time.time()
    checked = 0
    for k, l in [(p, q) for p in range(3) for q in range(3)]:
        for p, q in [(a, b) for a in range(3) for b in range(3)]:
            U, W = IndexRange(k, l), IndexRange(p, q)
            algebra = make_uw_algebra(U, W)
            for N in range(1, 6):
                direct = len(monomials_of_degree(algebra, N))
                summed = 0
                for shape in enumerate_partitions(N):
                    summed += count_semistandard(shape, U) * count_semistandard(
                        shape, W
                    )
                assert direct == summed, ((k, l), (p, q), N, direct, summed)
                checked += 1
    report(
        "AC-3 graded dimension identity (all dims <= (2|2), N <= 5)",
        checked == 9 * 9 * 5,
        f"{checked} identities, {time.time() - t0:.1f}s",
    )


def test_ac4_sl_tensor_invariants():
    """Both symmetrized canonical elements are special-linear invariants and
    carry nonzero weight."""
    t0 = time.time()
    for cid in ("T3.3", "T3.4"):
        records = run_claim(cid, ClaimOptions(dims=(1, 1), k=1))
        assert all(r.status == "pass" for r in records), cid
    report("AC-4 tensor invariants at (1|1), k=1", True, f"{time.time() - t0:.1f}s")


def test_ac5_sl_completeness():
    """Scalar products alone leave a witnessed gap at degree four; adding
    both extra families closes every degree."""
    t0 = time.time()
    records = run_claim(
        "T3.6", ClaimOptions(dims=(1, 1), pqkl=(1, 1, 1, 1), k=1, max_degree=4)
    )
    hard = [r for r in records if r.status != "errata"]
    assert all(r.status == "pass" for r in hard)
    strict = next(r for r in records if "scalars-only" in r.id)
    assert strict.witness is not None
    assert strict.dims == {"oracle": 16, "generated": 8}
    closed = [r for r in records if r.id.endswith("deg4") and "scalars" not in r.id]
    assert closed and all(r.dims == {"oracle": 16, "generated": 16} for r in closed)
    report(
        "AC-5 sl(1|1) completeness with the extra families",
        True,
        f"gap 8 -> closed at degree 4, {time.time() - t0:.1f}s",
    )


def test_ac6_osp():
    """Orthosymplectic scalar products: invariance, generation of the
    extension-invariant part, independence of the even Pfaffians, and the
    rectangle relations."""
    t0 = time.time()
    fam = build_family("osp", IndexRange(1, 2))
    for wdims in [(1, 0), (0, 2), (1, 1), (2, 0), (2, 1)]:
        records = run_claim(
            "T4.3", ClaimOptions(dims=(1, 2), wdims=wdims, max_degree=4)
        )
        assert all(r.status == "pass" for r in records), wdims
    # one odd W letter has no scalar product, so every record would be vacuous
    with pytest.raises(InvalidOptions, match="--wdims"):
        run_claim("T4.3", ClaimOptions(dims=(1, 2), wdims=(0, 1), max_degree=4))
    records = run_claim("T4.4", ClaimOptions(wdims=(2, 1), max_degree=4))
    assert all(r.status == "pass" for r in records)
    records = run_claim("T4.5", ClaimOptions(dims=(1, 2), wdims=(2, 1)))
    assert all(r.status == "pass" for r in records)
    report("AC-6 osp(1|2) scalar products, Pfaffians, relations", True, f"{time.time() - t0:.1f}s")


def test_ac7_nabla():
    """The constructive relative invariant passes the hard gates; the quoted
    closed form is recorded as an errata item."""
    t0 = time.time()
    records = run_claim("T5.1", ClaimOptions(dims=(1, 2)))
    by_id = {r.id.split(":")[-1]: r for r in records}
    assert by_id["nonzero-invariant"].status == "pass"
    assert by_id["not-gl-invariant"].status == "pass"
    assert by_id["closed-form-coefficients"].status == "errata"
    rep = nabla_closed_form_report(IndexRange(1, 2))
    assert rep["in_span"] is True
    report(
        "AC-7 constructive relative invariant at (1|2)",
        True,
        f"closed form recorded as errata, {time.time() - t0:.1f}s",
    )


def test_ac8_pe():
    """Periplectic scalar products and hook Pfaffians at both sizes; the
    rectangle relations at n = 1, while at n = 2 the relation tableau
    (4,4,4) misses the (2|1) hook, so that vector is refused."""
    t0 = time.time()
    for n in (1, 2):
        for wdims in [(1, 0), (1, 1), (2, 1)]:
            records = run_claim(
                "T6.2", ClaimOptions(dims=(n, n), wdims=wdims, max_degree=4)
            )
            assert all(r.status == "pass" for r in records), (n, wdims)
    records = run_claim("T6.3.1", ClaimOptions(wdims=(2, 1)))
    assert all(r.status == "pass" for r in records)
    records = run_claim("T6.3.2", ClaimOptions(dims=(1, 1), wdims=(2, 1)))
    assert all(r.status == "pass" for r in records)
    assert records[0].detail["relations"] == 4
    with pytest.raises(InvalidOptions):
        run_claim("T6.3.2", ClaimOptions(dims=(2, 2), wdims=(2, 1)))
    report("AC-8 pe(1), pe(2) scalar products and relations", True, f"{time.time() - t0:.1f}s")


def test_ac9_yminus():
    """Lower-product expansion: term count, corrected-convention match, and
    the literal base case's documented failure."""
    t0 = time.time()
    for n in (2, 3):
        rep = yminus_expansion(n)
        assert rep["term_count"] == 2 ** (n * (n - 1) // 2)
        assert rep["diff_corrected"].is_zero()
        assert not rep["diff_literal"].is_zero()
    report(
        "AC-9 lower-product expansion at n=2,3",
        True,
        f"corrected empty / literal non-empty, {time.time() - t0:.1f}s",
    )


def test_ac10_spe_tensors():
    """Constructive special-periplectic invariants at n=2, k=1,2; the quoted
    coefficient family is compared with errata on divergence."""
    t0 = time.time()
    V = IndexRange(2, 2)
    spe = build_family("spe", V)
    for k in (1, 2):
        w = spe_constructive_element(spe, k, "lower")
        assert w and all(act_on_tensor(x, w).is_zero() for x in spe.basis), k
        corrected = spe_closed_form_element(V, k, "lower", "corrected")
        wd = next(iter(w.terms))
        ratio = Fraction(w.terms[wd], corrected.terms[wd])
        assert corrected.scale(ratio) == w
    printed2 = spe_closed_form_element(V, 2, "lower", "printed")
    w2 = spe_constructive_element(spe, 2, "lower")
    wd = next(iter(w2.terms))
    diverges = printed2.terms.get(wd) is None or printed2.scale(
        Fraction(w2.terms[wd], printed2.terms[wd])
    ) != w2
    assert diverges
    # enumeration of the square tableaux matches the constraint filter
    assert len(t2_tableaux(2)) == t2_filter_oracle(2)
    records = run_claim("T7.2", ClaimOptions(n=2, k=2))
    assert all(r.status in ("pass", "errata") for r in records)
    assert any(r.status == "errata" for r in records)
    report(
        "AC-10 spe(2) constructive tensors at k=1,2",
        True,
        f"printed signs recorded as errata, {time.time() - t0:.1f}s",
    )


def test_ac11_property_suites():
    """Randomized exact property suites, 200+ cases each under fixed seeds."""
    t0 = time.time()

    # supercommutativity and associativity over a mixed-parity algebra
    fam = build_family("gl", IndexRange(1, 1))
    algebra = algebra_for(fam, 1, 1, 1, 1)
    rng = random.Random(2024)
    monos = {d: monomials_of_degree(algebra, d) for d in range(4)}

    def random_poly(degree):
        out = algebra.zero()
        for _ in range(rng.randint(1, 3)):
            out.add_term(rng.choice(monos[degree]), rng.randint(-4, 4))
        return out

    done = 0
    while done < 250:
        f = random_poly(rng.randint(0, 3))
        g = random_poly(rng.randint(0, 3))
        pf, pg = f.parity(), g.parity()
        if pf is None or pg is None:
            continue
        assert (f * g - (g * f).scale((-1) ** (pf * pg))).is_zero()
        done += 1
    done = 0
    while done < 250:
        f, g, h = (random_poly(rng.randint(0, 2)) for _ in range(3))
        assert ((f * g) * h - f * (g * h)).is_zero()
        assert (f * (g + h) - (f * g + f * h)).is_zero()
        done += 1

    # cocycle identity
    letters = IndexRange(2, 2).indices()
    for _ in range(250):
        k = rng.randint(1, 6)
        word = tuple(rng.choice(letters) for _ in range(k))
        sigma = Permutation(tuple(rng.sample(range(k), k)))
        tau = Permutation(tuple(rng.sample(range(k), k)))
        assert cocycle(word, sigma * tau) == cocycle(
            act_on_word(sigma.inverse(), word), tau
        ) * cocycle(word, sigma)

    # symmetrizer quasi-idempotence over every standard numbering up to six
    # cells, both variants
    checked = 0
    for size in range(1, 7):
        for shape in enumerate_partitions(size):
            for t in enumerate_standard_tableaux(shape):
                for variant in ("plain", "tilde"):
                    e = young_symmetrizer(t, variant)
                    square = e * e
                    ident = Permutation.identity(t.size)
                    c = Fraction(square.terms.get(ident, 0), e.terms[ident])
                    assert c != 0 and square == e.scale(c)
                    checked += 1
    assert checked == 238

    # bracket compatibility of the polynomial representation
    basis = fam.basis
    done = 0
    while done < 250:
        x, y = rng.choice(basis), rng.choice(basis)
        f = Polynomial(algebra, {rng.choice(monos[2]): Fraction(rng.randint(1, 5))})
        sign = (-1) ** (x.parity * y.parity)
        lhs = act_on_polynomial(x.bracket(y), f)
        rhs = act_on_polynomial(x, act_on_polynomial(y, f)) - act_on_polynomial(
            y, act_on_polynomial(x, f)
        ).scale(sign)
        assert (lhs - rhs).is_zero()
        done += 1

    report(
        "AC-11 randomized exact property suites (>=250 cases each)",
        True,
        f"{time.time() - t0:.1f}s",
    )
