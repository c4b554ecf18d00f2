from xchern.scalars import Scalar, ONE
from xchern.linalg import vec_add
from xchern.forms import FormSpace, fedosov_full
from xchern.qalgebra import iota, iotabar, q_gen, eta_even, eta_odd
from xchern.algebra import dict_product
from xchern.xcomplex import ZekriAlg


def _fold(form):
    """The folding map Q(A) -> A: the degree-0 component of a (form dict,
    lossy) pair, as a coefficient dict over the basis of A."""
    return {w[0] - 1: c for w, c in form[0].items() if len(w) == 1}


def _product(sp, f1, f2):
    """The Fedosov product of two (form dict, lossy) pairs."""
    out, lossy = fedosov_full(sp, f1[0], f2[0])
    return out, lossy or f1[1] or f2[1]


def test_generators(dual):
    sp = FormSpace(dual, 3)
    eps = {1: ONE}
    assert q_gen(eps, sp) == ({(0, 1): Scalar.from_int(2)}, False)
    io = iota(eps, sp)
    assert io == ({(2,): ONE, (0, 1): ONE}, False)
    assert iotabar(eps, sp) == ({(2,): ONE, (0, 1): -ONE}, False)
    assert _fold(io) == eps
    assert _fold(q_gen(eps, sp)) == {}


def test_iota_product(dual):
    sp = FormSpace(dual, 3)
    eps = {1: ONE}
    out = _product(sp, iota(eps, sp), iotabar(eps, sp))
    # (a + da)(a - da) with a^2 = 0: degree 0 part vanishes, cross terms too
    assert _fold(out) == {}


def test_fold_is_multiplicative(corpus_algebras):
    for alg in corpus_algebras:
        sp = FormSpace(alg, 3)
        words = [w for n in range(0, 3) for w in sp.basis_words(n)]
        for w1 in words[:8]:
            for w2 in words[:8]:
                f1, f2 = ({w1: ONE}, False), ({w2: ONE}, False)
                lhs = _fold(_product(sp, f1, f2))
                rhs = dict_product(alg, _fold(f1), _fold(f2))[0]
                assert lhs == rhs


def test_q_identity(corpus_algebras):
    """q(ab) = iota(a) q(b) + q(a) iotabar(b), both bracketings."""
    for alg in corpus_algebras:
        sp = FormSpace(alg, 3)
        for i in range(alg.dim):
            for j in range(alg.dim):
                a = {i: ONE}
                bb = {j: ONE}
                ab = dict_product(alg, a, bb)[0]
                lhs = q_gen(ab, sp)[0]
                rhs1 = vec_add(_product(sp, iota(a, sp), q_gen(bb, sp))[0],
                               _product(sp, q_gen(a, sp), iotabar(bb, sp))[0])
                rhs2 = vec_add(_product(sp, iotabar(a, sp), q_gen(bb, sp))[0],
                               _product(sp, q_gen(a, sp), iota(bb, sp))[0])
                assert lhs == rhs1, (alg.name, i, j)
                assert lhs == rhs2, (alg.name, i, j)


def _zekri_product(E, *factors):
    """Left-to-right product of label dicts in the crossed product E, with
    the loss flags of every step."""
    acc, loss = factors[0], False
    for f in factors[1:]:
        acc, l = dict_product(E, acc, f)
        loss = loss or l
    return acc, loss


def test_zekri_relations(dual):
    E = ZekriAlg(FormSpace(dual, 3))
    X = {(1, ()): ONE}
    # X . X = 1
    assert _zekri_product(E, X, X) == ({(0, ()): ONE}, False)
    # X a X = a on degree 0
    a = {(0, (2,)): ONE}
    assert _zekri_product(E, X, a, X) == (a, False)
    # X da X = -da
    da = {(0, (0, 1)): ONE}
    assert _zekri_product(E, X, da, X) == ({(0, (0, 1)): -ONE}, False)


def test_zekri_associative(dual):
    sp = FormSpace(dual, 3)
    E = ZekriAlg(sp)
    import random
    rng = random.Random(2)
    words = [w for n in range(0, 2) for w in sp.basis_words(n)]
    def rnd():
        # scalar + word, plus word . X
        e = {(0, ()): rng.randint(0, 2), (0, rng.choice(words)): ONE}
        e[(1, rng.choice(words))] = ONE
        return {k: c for k, c in e.items() if c}
    checked = 0
    for _ in range(25):
        z1, z2, z3 = rnd(), rnd(), rnd()
        z12, l1 = _zekri_product(E, z1, z2)
        lhs, l2 = _zekri_product(E, z12, z3)
        z23, l3 = _zekri_product(E, z2, z3)
        rhs, l4 = _zekri_product(E, z1, z23)
        if not (l1 or l2 or l3 or l4):
            checked += 1
            assert lhs == rhs
    assert checked


def test_eta_even_cases(dual):
    # only omega_+ X with positive even degree survives
    assert eta_even({(0, ()): ONE}) == {}           # 1
    assert eta_even({(1, ()): ONE}) == {}           # X
    assert eta_even({(0, (1, 1)): ONE}) == {}       # plain even form
    assert eta_even({(1, (0, 1)): ONE}) == {}       # odd form times X
    assert eta_even({(1, (1, 1, 0)): ONE}) == {(1, 1, 0): ONE}


def test_eta_odd_cases(dual):
    # (alpha_+ X) d omega_+ keeps the class, odd case flips the sign
    out = eta_odd({(((1, (1, 1, 0))), (0, (2,))): ONE})
    assert out == {((1, 1, 0), (2,)): ONE}
    out2 = eta_odd({((1, (0, 1)), (0, (0, 1))): ONE})
    assert out2 == {((0, 1), (0, 1)): -ONE}
    # plain-plain and dX-cases vanish
    assert eta_odd({((0, (1, 1)), (0, (2,))): ONE}) == {}
    assert eta_odd({((1, (1, 1)), (1, ())): ONE}) == {}
    # mixed parities vanish
    assert eta_odd({((1, (0, 1)), (0, (2,))): ONE}) == {}


def test_eta_is_chain_map(dual):
    from xchern.forms import FormSpace
    from xchern.xcomplex import XGenerated, ZekriAlg, FedosovAlg, \
        verify_chain_map
    from xchern.chern import eta_chain_map
    xe = XGenerated(ZekriAlg(FormSpace(dual, 2)), exact_quotient=True)
    xqs = XGenerated(FedosovAlg(FormSpace(dual, 2), graded=True),
                     exact_quotient=True)
    em = eta_chain_map(xe, xqs)
    rep = verify_chain_map(em)
    assert rep["ok"], rep["failures"][:3]
    assert rep["checked"] > 0
