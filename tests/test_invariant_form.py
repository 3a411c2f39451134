"""The one form table (`liealgebras.invariant_form`) against the forms and
scalar products written out by hand, pair by pair.

The references below keep the hand-written pair lists of the orthosymplectic
and periplectic forms and the two scalar products with their own sign
placements; every layer that reads the table must reproduce them, term for
term and in order.
"""

import pytest

from superinv.alphabet import IndexRange, ev, od
from superinv.generators import scalar_products, substitution_map
from superinv.liealgebras import invariant_form
from superinv.polynomials import make_mixed_algebra, make_sym_square_algebra
from superinv.tensors import plain_word, theta_tilde_2


def osp_form_tensor(dims):
    """Symmetric anti-diagonal pairing on the even part, symplectic pairing
    on the odd part, as ((a, b), c) pairs of e_a* x e_b*."""
    n, m = dims.even_count, dims.odd_count
    terms = [((ev(i), ev(n - i + 1)), 1) for i in range(1, n + 1)]
    for j in range(1, m // 2 + 1):
        terms.append(((od(m - j + 1), od(j)), 1))
        terms.append(((od(j), od(m - j + 1)), -1))
    return terms


def pe_form_tensor(dims):
    """The odd pairing e_i <-> e_i'."""
    terms = []
    for i in range(1, dims.even_count + 1):
        terms.append(((ev(i), od(i)), 1))
        terms.append(((od(i), ev(i)), 1))
    return terms


def osp_scalar_product(algebra, s, t):
    """The sign (-1)^{p(s)} on the odd part."""
    n, m = algebra.v_range.even_count, algebra.v_range.odd_count
    f = algebra.zero()
    for i in range(1, n + 1):
        f.add_term((algebra.index("vw", ev(i), s), algebra.index("vw", ev(n - i + 1), t)), 1)
    ps = (-1) ** s.parity
    for j in range(1, m // 2 + 1):
        f.add_term((algebra.index("vw", od(m - j + 1), s), algebra.index("vw", od(j), t)), ps)
        f.add_term((algebra.index("vw", od(j), s), algebra.index("vw", od(m - j + 1), t)), -ps)
    return f


def pe_scalar_product(algebra, s, t):
    """The sign (-1)^{p(s)} only on the summand whose first factor is even."""
    f = algebra.zero()
    ps = (-1) ** s.parity
    for i in range(1, algebra.v_range.even_count + 1):
        f.add_term((algebra.index("vw", ev(i), s), algebra.index("vw", od(i), t)), ps)
        f.add_term((algebra.index("vw", od(i), s), algebra.index("vw", ev(i), t)), 1)
    return f


FORMS = [("osp", d) for d in [(1, 2), (3, 2), (2, 0), (3, 0), (0, 2), (1, 4)]]
FORMS += [(tag, (n, n)) for tag in ("pe", "spe") for n in (1, 2, 3)]


@pytest.mark.parametrize("wdims", [(2, 1), (1, 2), (2, 2)])
@pytest.mark.parametrize("tag,dims", FORMS)
def test_every_layer_reads_the_hand_written_form(tag, dims, wdims):
    V, W = IndexRange(*dims), IndexRange(*wdims)
    osp = tag == "osp"
    pairs = osp_form_tensor(V) if osp else pe_form_tensor(V)
    reference = osp_scalar_product if osp else pe_scalar_product
    assert [((a, b), c) for a, (b, c) in invariant_form(tag, V).items()] == pairs

    algebra = make_mixed_algebra(V, IndexRange(0, 0), W)
    letters = W.indices()
    expected = [reference(algebra, s, t) for i, s in enumerate(letters) for t in letters[i:]]
    got = scalar_products(tag, algebra)
    assert [list(f.terms.items()) for f in got] == [list(f.terms.items()) for f in expected]

    source = make_sym_square_algebra(W, twisted=not osp)
    subs = substitution_map(tag, source, algebra)
    for idx, g in enumerate(source.generators):
        assert subs.images[idx] == reference(algebra, g.row, g.col)

    if osp:
        words = [(plain_word(ab), c) for ab, c in sorted(pairs)]
        assert list(theta_tilde_2(V).terms.items()) == words
