"""Free-product algebras modeled on forms with the full Fedosov product.

Q(A) is the space of degree-truncated forms with the product
w1 (.) w2 = w1 w2 - (-1)^{|w1|} dw1 dw2; the two canonical copies of A sit
as iota(a) = a + da and iotabar(a) = a - da.  The same space read in the
graded category is Qs(A).  The crossed product with the parity involution
gives the algebra with symmetry X (X^2 = 1, X w X = parity of w).
"""

from .scalars import ZERO, ONE
from .linalg import vec_axpy
from .algebra import Element
from . import forms as F


def iota(x, space):
    """a + da for a non-unital algebra element."""
    f = space.from_element(x)
    return f + F.d(f)


def iotabar(x, space):
    """a - da."""
    f = space.from_element(x)
    return f - F.d(f)


def q_gen(x, space):
    """q(a) = iota(a) - iotabar(a) = 2 da; q kills the unit."""
    f = space.from_element(x)
    return F.d(f).scale(2)


def fold(form):
    """Folding map onto the algebra: the degree-0 component."""
    alg = form.space.algebra
    out = {}
    for w, c in form.coeffs.items():
        if len(w) == 1:
            out[w[0] - 1] = c
    return Element(alg, out)


def parity_involution(form):
    """w -> (-1)^{deg w} w, the exchange of the two copies of A."""
    out = {}
    for w, c in form.coeffs.items():
        out[w] = c if (len(w) - 1) % 2 == 0 else -c
    return F.Form(form.space, out, form.lossy)


class UnitalForm:
    """Element of the unitalized Fedosov algebra: scalar + form body."""

    __slots__ = ("scalar", "body")

    def __init__(self, scalar, body):
        self.scalar = scalar
        self.body = body

    @staticmethod
    def unit(space, c=ONE):
        return UnitalForm(c, space.zero())

    def __add__(self, other):
        return UnitalForm(self.scalar + other.scalar, self.body + other.body)

    def __sub__(self, other):
        return UnitalForm(self.scalar - other.scalar, self.body - other.body)

    def scale(self, c):
        return UnitalForm(self.scalar * c, self.body.scale(c))

    def fedosov(self, other):
        body = F.fedosov_full(self.body, other.body)
        body = body + other.body.scale(self.scalar) + self.body.scale(other.scalar)
        return UnitalForm(self.scalar * other.scalar, body)

    def involve(self):
        return UnitalForm(self.scalar, parity_involution(self.body))

    def __eq__(self, other):
        return self.scalar == other.scalar and self.body == other.body

    def is_zero(self):
        return not self.scalar and self.body.is_zero()

    def __repr__(self):
        return "UnitalForm(%s, %r)" % (self.scalar, self.body)


class ZekriElement:
    """w + w'X over the unitalized Fedosov algebra, X^2 = 1."""

    __slots__ = ("even_part", "twisted_part")

    def __init__(self, even_part, twisted_part):
        self.even_part = even_part
        self.twisted_part = twisted_part

    def __add__(self, other):
        return ZekriElement(self.even_part + other.even_part,
                            self.twisted_part + other.twisted_part)

    def __sub__(self, other):
        return ZekriElement(self.even_part - other.even_part,
                            self.twisted_part - other.twisted_part)

    def scale(self, c):
        return ZekriElement(self.even_part.scale(c), self.twisted_part.scale(c))

    def __eq__(self, other):
        return (self.even_part == other.even_part
                and self.twisted_part == other.twisted_part)

    def __repr__(self):
        return "Zekri(%r + (%r)X)" % (self.even_part, self.twisted_part)


def zekri_x(space):
    return ZekriElement(UnitalForm(ZERO, space.zero()), UnitalForm.unit(space))


def zekri_embed(uform):
    return ZekriElement(uform, UnitalForm(ZERO, uform.body.space.zero()))


def zekri_mul(z1, z2):
    """(w1 + w1'X)(w2 + w2'X) with X w X the parity involution of w."""
    even = z1.even_part.fedosov(z2.even_part) \
        + z1.twisted_part.fedosov(z2.twisted_part.involve())
    twisted = z1.even_part.fedosov(z2.twisted_part) \
        + z1.twisted_part.fedosov(z2.even_part.involve())
    return ZekriElement(even, twisted)


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
