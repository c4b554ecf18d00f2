import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from xchern.scalars import Scalar, ONE
from xchern.linalg import vec_axpy
from xchern.algebra import dual_numbers, matrix_units, split_pair
from xchern import forms as F
from xchern.forms import FormSpace, d, b, kappa, connes_B, fedosov_full
from xchern.cli import Report, dga_suite

import xreference
from test_generated import rational_rebasing


def test_dimensions(dual):
    sp = FormSpace(dual, 4)
    assert sp.dim_degree(0) == 2
    for n in range(1, 5):
        assert sp.dim_degree(n) == 3 * 2 ** n
        assert len(sp.basis_words(n)) == sp.dim_degree(n)


def test_basis_words_keep_the_recursive_order(dual, m2):
    """Lexicographic order as enumerated by the former recursive helper."""
    def recursive(dim, n):
        if n == 0:
            return [(u,) for u in range(1, dim + 1)]
        words = []
        def rec(prefix, k):
            if k == 0:
                words.append(tuple(prefix))
                return
            for i in range(dim):
                rec(prefix + [i], k - 1)
        for u in range(dim + 1):
            rec([u], n)
        return words
    for alg in (dual, m2):
        sp = FormSpace(alg, 4)
        for n in range(5):
            assert sp.basis_words(n) == recursive(alg.dim, n), (alg.name, n)
        assert sp.basis_words(5) == []


def _recursive_words(letters, max_len):
    """Words of length 1..max_len as the former recursive helpers of
    tensoralg.tensor_words and xcomplex.TensorAlg.basis listed them."""
    out = []
    def rec(prefix, k):
        if k == 0:
            out.append(tuple(prefix))
            return
        for l in letters:
            rec(prefix + [l], k - 1)
    for n in range(1, max_len + 1):
        rec([], n)
    return out


@pytest.mark.parametrize("enumerator", ["tensor_words", "TensorAlg.basis",
                                        "unital TensorAlg.basis"])
def test_word_enumerators_keep_the_recursive_order(enumerator, dual, m2):
    from xchern.tensoralg import tensor_words
    from xchern.xcomplex import TensorAlg
    for alg in (dual, m2):
        for max_len in range(5):
            expect = _recursive_words(range(alg.dim), max_len)
            if enumerator == "tensor_words":
                got = tensor_words(alg.dim, max_len)
            else:
                unital = enumerator.startswith("unital")
                got = TensorAlg(alg, max_len, unital=unital).basis()
                if unital:
                    expect = [()] + expect
            assert got == expect, (alg.name, max_len)


def _sum(*terms):
    """sum of (coefficient, form dict) terms."""
    out = {}
    for c, vec in terms:
        vec_axpy(out, c, vec)
    return out


def test_d_examples(dual):
    sp = FormSpace(dual, 4)
    a = {(1,): ONE}
    assert d(sp, a) == ({(0, 0): ONE}, False)
    assert d(sp, d(sp, a)[0]) == ({}, False)
    assert d(sp, {(0, 1): ONE}) == ({}, False)


def test_d_lossy_at_edge(dual):
    sp = FormSpace(dual, 1)
    assert d(sp, {(1, 0): ONE}) == ({}, True)


def test_b_examples(m2):
    sp = FormSpace(m2, 4)
    # b(e12 d e21) = e12 e21 - e21 e12 = e11 - e22
    assert b(sp, {(2, 2): ONE}) == ({(1,): ONE, (4,): -ONE}, False)
    assert b(sp, {(1,): ONE}) == ({}, False)


def test_b_degree2_expansion(dual):
    # b(a0 da1 da2) = a0a1 da2 - a0 d(a1a2) + a2a0 da1
    sp = FormSpace(dual, 4)
    for w in sp.basis_words(2):
        got, _ = b(sp, {w: ONE})
        u, a1, a2 = w
        expect = {}
        left, _ = F._left_mul_word(sp, a1, (u,))
        for v, c in left.items():
            vec_axpy(expect, c, {v + (a2,): ONE})
        prods = sp.algebra.product_basis(a1, a2)
        for k, c in prods.items():
            vec_axpy(expect, -c, {(u, k): ONE})
        left2, _ = F._left_mul_word(sp, a2, (u,))
        for v, c in left2.items():
            vec_axpy(expect, c, {v + (a1,): ONE})
        assert got == expect, w


def test_kappa_examples(m2, dual):
    spm = FormSpace(m2, 3)
    assert kappa(spm, {(3,): ONE}) == ({(3,): ONE}, False)
    # kappa(da0 da1) = -da1 da0
    sp = FormSpace(dual, 3)
    assert kappa(sp, {(0, 0, 1): ONE}) == ({(0, 1, 0): -ONE}, False)


def test_connes_B_examples(m2):
    sp = FormSpace(m2, 3)
    assert connes_B(sp, {(2,): ONE}) == ({(0, 1): ONE}, False)
    assert connes_B(sp, {(0, 1): ONE}) == ({}, False)
    # B(a0 da1) = da0 da1 - da1 da0
    out, _ = connes_B(sp, {(1, 2): ONE})
    assert out == {(0, 0, 2): ONE, (0, 2, 0): -ONE}


def test_dga_identities(corpus_algebras):
    for alg in corpus_algebras:
        sp = FormSpace(alg, 4)

        def op(fn, vec):
            return fn(sp, vec)[0]
        for n in range(0, 4):
            for w in sp.basis_words(n):
                f = {w: ONE}
                assert op(b, op(b, f)) == {}
                df, lossy = d(sp, f)
                if not lossy:
                    assert _sum((ONE, f), (-ONE, op(kappa, f))) \
                        == _sum((ONE, op(d, op(b, f))), (ONE, op(b, df)))
                Bf, lossy = connes_B(sp, f)
                if not lossy:
                    BB, lossy = connes_B(sp, Bf)
                    if not lossy:
                        assert BB == {}
                    assert _sum((ONE, op(b, Bf)),
                                (ONE, op(connes_B, op(b, f)))) == {}
                    assert op(connes_B, op(kappa, f)) == Bf
                    assert op(kappa, Bf) == Bf
                assert op(kappa, op(b, f)) == op(b, op(kappa, f))


def _dga_statuses(alg, degree):
    report = Report(["verify-dga"])
    dga_suite(alg, degree, report)
    return {c["name"]: c["status"] for c in report.checks}


def _dga_run(monkeypatch, alg, degree):
    """Statuses of one dga_suite run and the FormSpace whose memos it
    filled."""
    spaces = []

    class Recorded(FormSpace):
        def __init__(self, *args):
            super().__init__(*args)
            spaces.append(self)

    monkeypatch.setattr(F, "FormSpace", Recorded)
    statuses = _dga_statuses(alg, degree)
    monkeypatch.undo()
    (sp,) = spaces
    return statuses, sp


def test_dga_memos_share_one_tuple_per_word(monkeypatch, m2):
    _, sp = _dga_run(monkeypatch, m2, 4)
    seen = {}
    keys = 0
    for fn, memo in sp._op_cache.items():
        for w, img in memo.items():
            # a flat image alternates words and coefficients
            for v in (w, *img[::2]):
                assert seen.setdefault(v, v) is v, v
                keys += 1
        for w in sp._lossy[fn]:
            assert seen.setdefault(w, w) is w, w
    assert keys > len(seen) > 0


def test_dga_b_memo_leaves_out_images_read_once(monkeypatch, m2):
    """b.b = 0 reads b on a top-degree word with a nonzero slot zero once;
    b on a top-degree exact word is read again by later columns."""
    _, sp = _dga_run(monkeypatch, m2, 4)
    top = [w for w in sp._op_cache[F._b_word] if len(w) == 5]
    assert top and all(w[0] == 0 for w in top)


@pytest.mark.parametrize("rebased", [False, True], ids=["m2", "rebased m2"])
def test_memo_agrees_with_the_word_operators(m2, rebased):
    """On every word of degree <= 3, the lossy top-degree words included:
    the memo's flat image lists the word operator's own pairs in order,
    with its loss flag; the lossy set holds exactly the lossy words; and
    _extend sums the unmemoized images as vec_axpy does."""
    alg = rational_rebasing(lambda: matrix_units(2), 7) if rebased else m2
    rng = random.Random(5)
    basis = FormSpace(alg, 3).basis_words
    words = [w for n in range(4) for w in basis(n)]
    coeffs = [ONE, -ONE, 2, Fraction(1, 2), Fraction(-3, 4)]
    for fn in (F._d_word, F._b_word, F._kappa_word, F._B_word):
        sp = FormSpace(alg, 3)
        vec = {w: rng.choice(coeffs) for w in rng.sample(words, 40)}
        want, want_lossy = {}, False
        for w, c in vec.items():
            img, lossy = fn(sp, w)
            vec_axpy(want, c, img)
            want_lossy = want_lossy or lossy
        # a cold memo, then a warm one
        assert F._extend(sp, fn, vec.items()) == (want, want_lossy)
        assert F._extend(sp, fn, vec.items()) == (want, want_lossy)
        lossy_words = set()
        for w in words:
            img, lossy = fn(sp, w)
            flat, flag = F._image(sp, fn, w)
            assert (list(F._pairs(flat)), flag) == (list(img.items()),
                                                    lossy), (fn.__name__, w)
            if lossy:
                lossy_words.add(w)
        assert sp._lossy[fn] == lossy_words
        # d and B lose the top-degree words with a nonzero slot zero
        assert bool(lossy_words) == (fn in (F._d_word, F._B_word))
        assert all(len(w) == 4 and w[0] for w in lossy_words)


def test_dga_suite_passes_on_m2_and_rebased_m2(monkeypatch, m2):
    rebased = rational_rebasing(lambda: matrix_units(2), 7)
    for alg, degree in ((m2, 4), (rebased, 3)):
        statuses, _ = _dga_run(monkeypatch, alg, degree)
        assert len(statuses) == 6
        assert set(statuses.values()) == {"pass"}, (alg.name, statuses)


def test_dga_suite_memos_hold_no_fraction(monkeypatch):
    """dga_suite builds its forms over the integral rescaling: after a run
    on rebased m2, no memoized image holds a Fraction coefficient, while
    b on the rebased table itself gives some."""
    rebased = rational_rebasing(lambda: matrix_units(2), 7)
    _, sp = _dga_run(monkeypatch, rebased, 3)
    coeffs = [c for memo in sp._op_cache.values() for img in memo.values()
              for c in img[1::2]]
    assert coeffs and not any(type(c) is Fraction for c in coeffs)
    raw = FormSpace(rebased, 3)
    assert any(type(c) is Fraction for w in raw.basis_words(1)
               for c in F._b_word(raw, w)[0].values())


def _with_a_rebasing(corpus_algebras):
    """The corpus and a rational rebasing of dual, which dga_suite checks on
    its integral rescaling."""
    return corpus_algebras + [rational_rebasing(dual_numbers, 3)]


def test_dga_suite_catches_a_flipped_wrap_term(monkeypatch, corpus_algebras):
    """Negative control: b with the sign of its wrap term
    (-1)^n (an.a0).da1...da_{n-1} flipped no longer squares to zero."""
    algebras = _with_a_rebasing(corpus_algebras)
    good = F._b_word

    def flipped(space, w):
        out, lossy = good(space, w)
        out = dict(out)
        n = len(w) - 1
        if n:
            wrap, _ = F._left_mul_word(space, w[-1], w[:-1])
            vec_axpy(out, -2 if n % 2 == 0 else 2, wrap)
        return out, lossy

    for alg in algebras:
        assert set(_dga_statuses(alg, 4).values()) == {"pass"}, alg.name
    monkeypatch.setattr(F, "_b_word", flipped)
    for alg in algebras:
        assert _dga_statuses(alg, 4)["b.b = 0"] == "fail", alg.name


def test_dga_suite_catches_a_dropped_rotation(monkeypatch, corpus_algebras):
    """Negative control: B without its last cyclic rotation of dw fails
    B.B = 0 or b.B + B.b = 0."""
    def short(space, w):
        dw, lossy = F._d_word(space, w)
        out = {}
        for x in dw:
            letters = x[1:]
            n = len(letters) - 1
            for j in range(n):
                cut = n + 1 - j
                vec_axpy(out, -1 if n * j % 2 else 1,
                         {(0,) + letters[cut:] + letters[:cut]: ONE})
        return out, lossy

    monkeypatch.setattr(F, "_B_word", short)
    for alg in _with_a_rebasing(corpus_algebras):
        status = _dga_statuses(alg, 4)
        assert "fail" in (status["B.B = 0"], status["b.B + B.b = 0"]), (
            alg.name, status)


def test_graded_mul_examples(dual):
    """The graded product of words, which fedosov_words is built on."""
    sp = FormSpace(dual, 5)
    # d(eps) eps and eps d(eps)
    assert F._mul_words(sp, (0, 1), (2,)) == ({(2, 1): -ONE}, False)
    assert F._mul_words(sp, (2,), (1, 1)) == ({(2, 1): ONE}, False)
    # (a0 da1)(a2 da3) = a0 d(a1a2) da3 - a0a1 da2 da3 with eps^2 = 0:
    # (1 d(eps)) (eps d(1))
    assert F._mul_words(sp, (1, 1), (2, 0)) == ({(2, 1, 0): -ONE}, False)


def test_leibniz_property(corpus_algebras):
    rng = random.Random(1)
    for alg in corpus_algebras:
        sp = FormSpace(alg, 5)
        for _ in range(40):
            n1, n2 = rng.randint(0, 2), rng.randint(0, 2)
            w1 = rng.choice(sp.basis_words(n1))
            w2 = rng.choice(sp.basis_words(n2))
            f1, f2 = {w1: ONE}, {w2: ONE}
            df1, ld1 = d(sp, f1)
            df2, ld2 = d(sp, f2)
            prod, l1 = xreference.graded_mul(sp, f1, f2)
            lhs, l2 = d(sp, prod)
            sign = ONE if n1 % 2 == 0 else -ONE
            left, l3 = xreference.graded_mul(sp, df1, f2)
            right, l4 = xreference.graded_mul(sp, f1, df2)
            if not (l1 or l2 or l3 or l4 or ld1 or ld2):
                assert lhs == _sum((ONE, left), (sign, right))


def test_fedosov_examples(dual):
    sp = FormSpace(dual, 6)
    a = {(2,): ONE}
    # on even forms fedosov_full is the tensor-algebra product a*a - da*da
    assert fedosov_full(sp, a, a) == ({(0, 1, 1): -ONE}, False)
    q = vec_axpy({}, Scalar.from_int(2), d(sp, a)[0])
    assert fedosov_full(sp, q, q)[0] == {(0, 1, 1): Scalar.from_int(4)}
    # unit of the even picture: a closed even form times dc de
    dd = {(0, 0, 1): ONE}
    assert fedosov_full(sp, dd, dd)[0] == F._mul_words(sp, (0, 0, 1),
                                                      (0, 0, 1))[0]


def test_fedosov_associativity(corpus_algebras):
    rng = random.Random(5)
    for alg in corpus_algebras:
        sp = FormSpace(alg, 6)
        words = [w for n in range(0, 3) for w in sp.basis_words(n)]
        for _ in range(30):
            f1, f2, f3 = ({rng.choice(words): ONE} for _ in range(3))
            f12, l1 = fedosov_full(sp, f1, f2)
            left, l2 = fedosov_full(sp, f12, f3)
            f23, l3 = fedosov_full(sp, f2, f3)
            right, l4 = fedosov_full(sp, f1, f23)
            if not (l1 or l2 or l3 or l4):
                assert left == right


# window 4 on algebras of dimension 2 and 4: forms reach the top degree,
# where d and the products leave the window and the loss flag matters
SPACES = [FormSpace(make(), 4) for make in
          (dual_numbers, split_pair, lambda: matrix_units(2))]


def _words(sp):
    # low degrees weigh more, so that many products fit in the window
    dim = sp.algebra.dim
    degrees = [n for n in range(sp.max_degree + 1)
               for _ in range(sp.max_degree + 1 - n)]
    return st.sampled_from(degrees).flatmap(lambda n: st.tuples(
        st.integers(1 if n == 0 else 0, dim),
        *[st.integers(0, dim - 1)] * n))


@st.composite
def _form_pairs(draw):
    sp = draw(st.sampled_from(SPACES))
    coeff = st.builds(Fraction, st.integers(-3, 3).filter(bool),
                      st.integers(1, 2))
    def form():
        return draw(st.dictionaries(_words(sp), coeff, max_size=2))
    return sp, form(), form()


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(_form_pairs())
# a top-degree word, whose d leaves the window, times a 0-form and a 1-form
@example((SPACES[0], {(1, 0, 1, 1, 0): ONE, (2, 1): Fraction(1, 2)},
          {(2,): -ONE, (0, 1): 2}))
def test_fedosov_full_matches_reference(pair):
    sp, f1, f2 = pair
    got = fedosov_full(sp, f1, f2)
    want = xreference.fedosov_full(sp, f1, f2)
    if f2:
        assert got == want
    else:
        # the reference also flags the loss of d(f1) when f1 meets the zero
        # form; the product is 0 exactly, and no pair of words lost anything
        assert got == ({}, False) and want[0] == {}


def test_fedosov_words_match_reference_on_every_word_pair(corpus_algebras):
    for alg in corpus_algebras:
        sp = FormSpace(alg, 3 if alg.dim <= 2 else 2)
        words = [w for n in range(sp.max_degree + 1)
                 for w in sp.basis_words(n)]
        for w1 in words:
            for w2 in words:
                want = xreference.fedosov_full(sp, {w1: ONE}, {w2: ONE})
                got = F.fedosov_words(sp, w1, w2)
                assert got == want, (alg.name, w1, w2)
