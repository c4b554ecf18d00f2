"""The free product of an algebra with itself, modeled on forms.

Q(A) is the space of degree-truncated forms with the product
w1 (.) w2 = w1 w2 - (-1)^{|w1|} dw1 dw2; the two canonical copies of A sit
as iota(a) = a + da and iotabar(a) = a - da, for a in A given as a
coefficient dict {basis index: coefficient}; forms are dicts over form
words, returned with their loss flag.  The same space read in the
graded category is Qs(A).  Products of basis labels live in
xcomplex.FedosovAlg, whose label dicts take the key None for the adjoined
unit, and the crossed product of the unitalization by the parity
involution (X^2 = 1, X w X = parity of w) in xcomplex.ZekriAlg.  Here also
is the case table of the chain map eta from the X-complex of that crossed
product to the X-complex of Qs(A).
"""

from .scalars import ONE
from .linalg import vec_axpy
from . import forms as F


def _branch(x, space, sign):
    """a + sign da as (form dict, lossy)."""
    f = {(i + 1,): c for i, c in x.items() if c}
    df, lossy = F.d(space, f)
    return vec_axpy(f, sign, df), lossy


def iota(x, space):
    """a + da for an element {basis index: coefficient} of A, as (form
    dict, lossy)."""
    return _branch(x, space, ONE)


def iotabar(x, space):
    """a - da."""
    return _branch(x, space, -ONE)


def q_gen(x, space):
    """q(a) = iota(a) - iotabar(a) = 2 da; q kills the unit."""
    df, lossy = F.d(space, {(i + 1,): c for i, c in x.items() if c})
    return vec_axpy({}, 2, df), lossy


# ---------------------------------------------------------------------------
# the chain map eta from the X-complex of the crossed product to the
# X-complex of the super Fedosov algebra.  It acts on canonical labels:
# even labels of X(E) are pairs (flag, word) with word = () the unit part;
# odd labels are (z, g) with z = None or an E label and g an E generator,
# the generators being the degree 0/1 letter words and the symmetry X.
# ---------------------------------------------------------------------------


def _e_parity(word):
    return 0 if word == () else (len(word) - 1) % 2


def eta_even(vec):
    """Even case table: only w X with w of even positive degree survives."""
    out = {}
    for label, c in vec.items():
        flag, word = label
        if flag == 1 and word != () and _e_parity(word) == 0:
            vec_axpy(out, c, {word: ONE})
    return out


def eta_odd(vec):
    """Odd case table on canonical one-form labels of the crossed product."""
    out = {}
    for (z, g), c in vec.items():
        gflag, gword = g
        if gflag == 1:
            continue  # d of the symmetry itself contributes nothing
        pg = _e_parity(gword)
        if z is None:
            continue  # plain slot with plain generator: zero case
        zflag, zword = z
        if zflag == 0:
            continue  # both plain: zero case
        pz = _e_parity(zword)
        tgt_z = None if zword == () else zword
        if pg == 0 and pz == 0:
            vec_axpy(out, c, {(tgt_z, gword): ONE})
        elif pg == 1 and pz == 1:
            vec_axpy(out, c, {(tgt_z, gword): -ONE})
    return out
