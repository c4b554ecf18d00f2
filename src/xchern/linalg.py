"""Sparse exact linear algebra over the coefficient field Q(i)(sqrt pi).

Vectors are dicts mapping hashable basis labels to nonzero coefficients
from the tower of scalars.coerce: plain ints and Fractions for rational
values, Scalars only for the others.  Rational input therefore stays in
native int and Fraction arithmetic; scaling coerces its results, so a row
normalized by a rational pivot keeps ints where its entries are integers.
Labels may be arbitrary nested tuples of ints and strings; a deterministic
total order on labels keeps echelon forms and quotient bases reproducible
across runs.
"""

from fractions import Fraction

from .scalars import ONE, coerce, inv


class _Last:
    """Label that sorts after every other label."""


_RHS = _Last()


def label_key(label):
    """Total order on heterogeneous labels (None, ints, strings, tuples)."""
    if label is None:
        return (-1,)
    if isinstance(label, tuple):
        return (2, tuple(label_key(x) for x in label))
    if isinstance(label, str):
        return (1, label)
    if label is _RHS:
        return (3,)
    return (0, label)


def vec_add(u, v):
    out = dict(u)
    for k, c in v.items():
        s = out.get(k)
        s = c if s is None else s + c
        if s:
            out[k] = s
        elif k in out:
            del out[k]
    return out


def vec_scale(u, c):
    if not c:
        return {}
    return {k: coerce(v * c) for k, v in u.items()}


def vec_axpy(out, coeff, v):
    """In place: out += coeff * v.  An integer-valued Fraction entry is
    stored as an int, as the tower of scalars.coerce asks."""
    if not coeff:
        return out
    for k, c in v.items():
        s = out.get(k)
        s = coeff * c if s is None else s + coeff * c
        if s:
            out[k] = (s.numerator if type(s) is Fraction
                      and s.denominator == 1 else s)
        elif k in out:
            del out[k]
    return out


class Span:
    """Row space in reduced echelon form over arbitrary labels.

    Each row's pivot is the smallest label of its support (by label_key)
    with coefficient one, and no row contains another row's pivot.  That
    form is canonical: the pivot set, every row and every residual depend
    on the space only, not on the order of insertion.

    With track set, each row also records how it combines the inserted
    vectors, as a dict over insertion indices (its provenance).
    """

    def __init__(self, vectors=(), track=False):
        self.rows = {}  # pivot label -> row vector
        self.prov = {} if track else None  # pivot label -> provenance
        self.count = 0  # vectors inserted so far
        for v in vectors:
            self.add(v)

    @property
    def dim(self):
        return len(self.rows)

    def _eliminate(self, vec, combo=None):
        """Residual of vec; combo, if given, takes away the provenance of
        every row subtracted.  Rows hold no other pivot, so one pass over
        the pivots present in vec clears them all."""
        v = dict(vec)
        for p in [k for k in v if k in self.rows]:
            c = v[p]
            vec_axpy(v, -c, self.rows[p])
            if combo is not None:
                vec_axpy(combo, -c, self.prov[p])
        return v

    def reduce(self, vec):
        """Residual of vec modulo the span."""
        return self._eliminate(vec)

    def contains(self, vec):
        return not self.reduce(vec)

    def add(self, vec):
        """Insert a vector; returns True if the span grew."""
        combo = None
        if self.prov is not None:
            combo = {self.count: ONE}
        self.count += 1
        r = self._eliminate(vec, combo)
        if not r:
            return False
        piv = min(r, key=label_key)
        scale = inv(r[piv])
        r = vec_scale(r, scale)
        if combo is not None:
            combo = vec_scale(combo, scale)
        # clear the new pivot from the other rows to keep the form reduced
        for p, row in self.rows.items():
            c = row.get(piv)
            if c:
                vec_axpy(row, -c, r)
                if combo is not None:
                    vec_axpy(self.prov[p], -c, combo)
        self.rows[piv] = r
        if combo is not None:
            self.prov[piv] = combo
        return True

    def basis(self):
        return [self.rows[p] for p in sorted(self.rows, key=label_key)]


def check_columns(sides, column):
    """Check an identity column by column on a truncation window.

    sides yields (tag, labels); column(tag, label) returns (vector, lossy),
    the vector zero where the identity holds.  A lossy column is skipped
    and its vector ignored, so column may return None for it.  Returns
    {"ok", "checked", "skipped", "failures"}, the failures as
    (tag, label, vector) in the order checked."""
    failures = []
    checked = skipped = 0
    for tag, labels in sides:
        for label in labels:
            vec, lossy = column(tag, label)
            if lossy:
                skipped += 1
                continue
            checked += 1
            if vec:
                failures.append((tag, label, vec))
    return {"ok": not failures, "checked": checked, "skipped": skipped,
            "failures": failures}


def solve(equations, rhs, track_witness=False):
    """Solve a sparse linear system over the coefficient field.

    equations: list of dicts over unknown labels; rhs: list of scalars.
    Returns (solution dict, None) with unassigned unknowns implicitly zero,
    or (None, witness) when inconsistent.  The witness is a dict over
    equation indices whose combination yields 0 = nonzero when
    track_witness is set, else the index of the first equation that makes
    the system inconsistent.

    Each equation enters a Span with its right-hand side under a label
    that sorts last, so a row pivots on that label exactly when it reads
    0 = nonzero.  In reduced form every pivot unknown equals its row's
    right-hand side once the free unknowns are zero.
    """
    span = Span(track=track_witness)
    for idx, (eq, b) in enumerate(zip(equations, rhs)):
        row = dict(eq)
        if b:
            row[_RHS] = b
        span.add(row)
        if _RHS in span.rows:
            if not track_witness:
                return None, idx
            # the new row is this equation's residual scaled to pivot one;
            # scale back so the equation itself enters with coefficient one
            combo = span.prov[_RHS]
            return None, vec_scale(combo, inv(combo[idx]))
    return {p: row[_RHS] for p, row in span.rows.items() if _RHS in row}, None
