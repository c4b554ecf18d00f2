"""Exact coefficient arithmetic.

The coefficient field is Q(i)(p): Gaussian rationals extended by a formal
transcendental p standing for sqrt(pi).  A coefficient is stored in the
cheapest member of a three-step tower:

- an int when it is an integer,
- a Fraction when it is any other rational,
- a Scalar otherwise: a reduced fraction of polynomials in p with
  Gaussian-rational coefficients and a monic denominator.

coerce() is the one promotion rule that picks the member, and every Scalar
operation returns a coerced result, so no value ever is a rational Scalar.
Plain int and Fraction arithmetic therefore stays inside the tower (int /
int is the one exception: divide with inv()), and a Scalar meets an int or
a Fraction through its own mixed operators.  Equality is plain structural
comparison and no rounding can ever occur; equal values hash equal across
the tower.
"""

import math
from fractions import Fraction


class GaussianRational:
    """a + b*i with rational a, b."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if isinstance(re, Fraction) else Fraction(re)
        self.im = im if isinstance(im, Fraction) else Fraction(im)

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __add__(self, other):
        return GaussianRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other):
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def inverse(self):
        n = self.re * self.re + self.im * self.im
        if not n:
            raise ZeroDivisionError("inverse of zero Gaussian rational")
        return GaussianRational(self.re / n, -self.im / n)

    def __repr__(self):
        return "GQ(%s, %s)" % (self.re, self.im)


GQ_ZERO = GaussianRational(0)
GQ_ONE = GaussianRational(1)

# Polynomials in p are tuples of GaussianRational, low degree first, with no
# trailing zero.  The zero polynomial is the empty tuple.


def _ptrim(coeffs):
    n = len(coeffs)
    while n and not coeffs[n - 1]:
        n -= 1
    return tuple(coeffs[:n])


def _padd(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for k, c in enumerate(b):
        out[k] = out[k] + c
    return _ptrim(out)


def _pneg(a):
    return tuple(-c for c in a)


def _pmul(a, b):
    if not a or not b:
        return ()
    out = [GQ_ZERO] * (len(a) + len(b) - 1)
    for j, x in enumerate(a):
        if not x:
            continue
        for k, y in enumerate(b):
            if y:
                out[j + k] = out[j + k] + x * y
    return _ptrim(out)


def _pscale(a, c):
    if not c:
        return ()
    return _ptrim([x * c for x in a])


def _pdivmod(a, b):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a)
    quo = [GQ_ZERO] * max(0, len(a) - len(b) + 1)
    inv_lead = b[-1].inverse()
    while len(rem) >= len(b):
        if not rem[-1]:
            rem.pop()
            continue
        c = rem[-1] * inv_lead
        shift = len(rem) - len(b)
        quo[shift] = quo[shift] + c
        for k, y in enumerate(b):
            rem[shift + k] = rem[shift + k] - c * y
        rem.pop()
    return _ptrim(quo), _ptrim(rem)


def _pgcd(a, b):
    while b:
        a, b = b, _pdivmod(a, b)[1]
    if a:
        a = _pscale(a, a[-1].inverse())  # monic
    return a


_PONE = (GQ_ONE,)


class Scalar:
    """Element of Q(i)(p), kept in canonical reduced form.

    The constructor builds any element, rational ones included; the
    operators take Scalar, int and Fraction operands and return coerce()d
    values."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=_PONE, _reduced=False):
        if _reduced:
            self.num = num
            self.den = den
            return
        num, den = _ptrim(num), _ptrim(den)
        if not den:
            raise ZeroDivisionError("scalar with zero denominator")
        if not num:
            self.num = ()
            self.den = _PONE
            return
        g = _pgcd(num, den)
        if len(g) > 1:
            num = _pdivmod(num, g)[0]
            den = _pdivmod(den, g)[0]
        lead = den[-1]
        if lead != GQ_ONE:
            inv = lead.inverse()
            num = _pscale(num, inv)
            den = _pscale(den, inv)
        self.num = num
        self.den = den

    # ---- constructors: each returns the promoted value -----------------

    @staticmethod
    def from_int(n):
        return coerce(Fraction(n))

    @staticmethod
    def rational(a, b=1):
        return coerce(Fraction(a, b))

    @staticmethod
    def gaussian(re, im):
        g = GaussianRational(re, im)
        return coerce(Scalar((g,), _PONE, _reduced=True))

    # ---- field operations on Scalars, results not yet coerced ---------

    def _sum(self, other):
        if not other.num:
            return self
        if not self.num:
            return other
        if self.den == other.den:
            num = _padd(self.num, other.num)
            if self.den == _PONE:
                return Scalar(num, _PONE, _reduced=True)
            return Scalar(num, self.den)
        return Scalar(
            _padd(_pmul(self.num, other.den), _pmul(other.num, self.den)),
            _pmul(self.den, other.den),
        )

    def _neg(self):
        return Scalar(_pneg(self.num), self.den, _reduced=True)

    def _prod(self, other):
        if self.den == _PONE and other.den == _PONE:
            return Scalar(_pmul(self.num, other.num), _PONE, _reduced=True)
        return Scalar(_pmul(self.num, other.num), _pmul(self.den, other.den))

    def _inv(self):
        if not self.num:
            raise ZeroDivisionError("inverse of zero scalar")
        return Scalar(self.den, self.num)

    # ---- predicates ----------------------------------------------------

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        other = _lift(other)
        if other is None:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        value = coerce(self)
        if value is not self:
            return hash(value)
        return hash((self.num, self.den))

    # ---- arithmetic over the tower ---------------------------------------

    def _mixed(op):
        """Operator on a Scalar and a Scalar, int or Fraction operand that
        returns the coerced result of op on the two lifted operands."""
        def method(self, other):
            other = _lift(other)
            if other is None:
                return NotImplemented
            return coerce(op(self, other))
        return method

    __add__ = __radd__ = _mixed(lambda a, b: a._sum(b))
    __sub__ = _mixed(lambda a, b: a._sum(b._neg()))
    __rsub__ = _mixed(lambda a, b: b._sum(a._neg()))
    __mul__ = __rmul__ = _mixed(lambda a, b: a._prod(b))
    __truediv__ = _mixed(lambda a, b: a._prod(b._inv()))
    __rtruediv__ = _mixed(lambda a, b: b._prod(a._inv()))
    del _mixed

    def __neg__(self):
        return coerce(self._neg())

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        base = self if k >= 0 else self._inv()
        k = abs(k)
        out = _S_ONE
        while k:
            if k & 1:
                out = out._prod(base)
            base = base._prod(base)
            k >>= 1
        return coerce(out)

    # ---- printing ------------------------------------------------------

    def __str__(self):
        return render(self)

    def __repr__(self):
        return "Scalar(%s)" % render(self)


_S_ONE = Scalar(_PONE, _PONE, _reduced=True)


def _is_exact_rational(x):
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


def _lift(x):
    """x as a Scalar, or None when x is no exact number."""
    if isinstance(x, Scalar):
        return x
    if _is_exact_rational(x):
        return Scalar((GaussianRational(x),) if x else (), _PONE,
                      _reduced=True)
    return None


def coerce(x):
    """The one promotion rule: x as an int when it is an integer, as a
    Fraction when it is any other rational, else as the Scalar itself.
    Rejects float, bool, complex and everything else with TypeError."""
    if isinstance(x, Scalar):
        num = x.num
        if not num:
            return 0
        if len(num) == 1 and not num[0].im and x.den == _PONE:
            x = num[0].re
        else:
            return x
    elif not _is_exact_rational(x):
        raise TypeError("not an exact scalar: %r" % (x,))
    if x.denominator == 1:
        return int(x.numerator)
    return x


def inv(x):
    """Multiplicative inverse anywhere in the tower."""
    if isinstance(x, Scalar):
        return coerce(x._inv())
    return coerce(Fraction(1, coerce(x)))


def is_rational(x):
    return not isinstance(coerce(x), Scalar)


def to_complex(x):
    """Float value with p evaluated at sqrt(pi)."""
    x = coerce(x)
    if not isinstance(x, Scalar):
        return complex(x)
    p = math.sqrt(math.pi)

    def ev(poly):
        z = 0j
        for k, c in enumerate(poly):
            z += complex(c.re + c.im * 1j) * p ** k
        return z
    return ev(x.num) / ev(x.den)


ZERO = 0
ONE = 1
HALF = Fraction(1, 2)
I = Scalar((GaussianRational(0, 1),), _PONE, _reduced=True)
SQRT_PI = Scalar((GQ_ZERO, GQ_ONE), _PONE, _reduced=True)


def gamma_half(n):
    """Gamma(n/2) for a positive integer n, exactly.

    Built from Gamma(1) = 1 and Gamma(1/2) = sqrt(pi) by the recursion
    Gamma(x+1) = x*Gamma(x).  Rejects n <= 0: poles are never needed.
    """
    if n <= 0:
        raise ValueError("gamma_half requires a positive integer, got %r" % (n,))
    val, x = (1, Fraction(1)) if n % 2 == 0 else (SQRT_PI, Fraction(1, 2))
    for _ in range((n - 1) // 2):
        val = val * x
        x += 1
    return coerce(val)


def bott_constant():
    """sqrt(2*pi*i) with the principal value sqrt(2i) = 1 + i."""
    return Scalar.gaussian(1, 1) * SQRT_PI


SQRT_2I = Scalar.gaussian(1, 1)


# ---------------------------------------------------------------------------
# text form: rationals as "a/b", the imaginary unit as "i", p as "sqrt(pi)".
# render() emits an expression the parser accepts, so round-trips are exact.
# ---------------------------------------------------------------------------


def _render_fraction(q):
    if q.denominator == 1:
        return str(q.numerator)
    return "%d/%d" % (q.numerator, q.denominator)


def _render_gq(g):
    if not g.im:
        return _render_fraction(g.re)
    if g.im == 1:
        imtxt = "i"
    elif g.im == -1:
        imtxt = "-i"
    else:
        imtxt = _render_fraction(g.im) + "i"
    if not g.re:
        return imtxt
    if imtxt.startswith("-"):
        return _render_fraction(g.re) + imtxt
    return _render_fraction(g.re) + "+" + imtxt


def _render_poly(poly):
    if not poly:
        return "0"
    parts = []
    for k, c in enumerate(poly):
        if not c:
            continue
        ctxt = _render_gq(c)
        if k == 0:
            parts.append(ctxt)
            continue
        ptxt = "sqrt(pi)" if k == 1 else "sqrt(pi)^%d" % k
        if ctxt == "1":
            parts.append(ptxt)
        elif ctxt == "-1":
            parts.append("-" + ptxt)
        else:
            if "+" in ctxt or ("-" in ctxt[1:]):
                ctxt = "(" + ctxt + ")"
            parts.append(ctxt + "*" + ptxt)
    out = parts[0]
    for ptxt in parts[1:]:
        out += ptxt if ptxt.startswith("-") else "+" + ptxt
    return out


def render(s):
    s = coerce(s)
    if not isinstance(s, Scalar):
        return _render_fraction(s)
    if s.den == _PONE:
        return _render_poly(s.num)
    return "(%s)/(%s)" % (_render_poly(s.num), _render_poly(s.den))


class _Tokens:
    def __init__(self, text):
        self.toks = []
        i = 0
        while i < len(text):
            ch = text[i]
            if ch.isspace():
                i += 1
            elif ch.isdigit():
                j = i
                while j < len(text) and text[j].isdigit():
                    j += 1
                self.toks.append(("num", int(text[i:j])))
                i = j
            elif text.startswith("sqrt(pi)", i):
                self.toks.append(("pi", None))
                i += len("sqrt(pi)")
            elif ch == "i":
                self.toks.append(("i", None))
                i += 1
            elif ch in "+-*/^()":
                self.toks.append((ch, None))
                i += 1
            else:
                raise ValueError("bad character %r in scalar text" % ch)
        self.pos = 0

    def peek(self):
        return self.toks[self.pos][0] if self.pos < len(self.toks) else None

    def next(self):
        tok = self.toks[self.pos]
        self.pos += 1
        return tok


def parse(text):
    """Parse the text form produced by render()."""
    toks = _Tokens(text)
    val = _parse_expr(toks)
    if toks.peek() is not None:
        raise ValueError("trailing input in scalar text %r" % text)
    return coerce(val)


def _parse_expr(toks):
    val = _parse_term(toks)
    while toks.peek() in ("+", "-"):
        op = toks.next()[0]
        rhs = _parse_term(toks)
        val = val + rhs if op == "+" else val - rhs
    return val


def _parse_term(toks):
    val = _parse_factor(toks)
    while True:
        nxt = toks.peek()
        if nxt in ("*", "/"):
            op = toks.next()[0]
            rhs = _parse_factor(toks)
            val = val * (rhs if op == "*" else inv(rhs))
        elif nxt in ("num", "i", "pi", "("):
            # implicit multiplication, as in "2i" or "3/4i*sqrt(pi)"
            val = val * _parse_factor(toks)
        else:
            return val


def _parse_factor(toks):
    neg = False
    while toks.peek() in ("+", "-"):
        if toks.next()[0] == "-":
            neg = not neg
    kind = toks.peek()
    if kind == "num":
        val = toks.next()[1]
    elif kind == "i":
        toks.next()
        val = I
    elif kind == "pi":
        toks.next()
        val = SQRT_PI
    elif kind == "(":
        toks.next()
        val = _parse_expr(toks)
        if toks.peek() != ")":
            raise ValueError("missing closing parenthesis in scalar text")
        toks.next()
    else:
        raise ValueError("unexpected token %r in scalar text" % (kind,))
    if toks.peek() == "^":
        toks.next()
        tok = toks.next()
        if tok[0] != "num":
            raise ValueError("exponent must be an integer")
        val = val ** tok[1]
    return -val if neg else val
