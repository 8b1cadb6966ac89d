"""Exact arithmetic over the real algebraic numbers.

Every value is a pair (theta, g): g an element of Q[x]/(m), m the minimal
polynomial of a generator theta, held as integer numerators n of degree
below deg m over one positive denominator d, in the one canonical form of
polys (so equal elements are equal pairs).  A rational p/q is the constant
((p,), q), zero ((), 1), over no generator (theta None).  A generator is an
irrational held by its (primitive, irreducible, positive-lead) integer
minimal polynomial and a rational isolating interval containing exactly
that one real root; it is x over itself.
Values over one generator add, multiply, divide and compare as polynomials
modulo m (Cohen, GTM 138, ch. 4), with the arithmetic of polys.  A
generator psi may also record older generators t of its subfields as
t = h(psi) (embeddings, each checked exactly before it is kept): a square
root records the generator of its radicand's field (a tower), and a
primitive element psi = t1 + k*t2 of the compositum of two fields records
both (Loos, "Computing in algebraic extensions", 1982).  Two quadratic
fields join in closed form, other pairs by a gcd over Q(psi), and each of
t1 and t2 remembers the last compositum it was joined into, so the same
pair joins once.
Every operation (add, sub, mul, compare, dot, combo) first asks one function,
_field, where its operands meet.  Constants meet every generator: two
rationals take integer arithmetic over one denominator, and a rational
scales or shifts the other operand's numerators, with no search and,
below deg m, no reduction.  Operands over one generator meet over it.
Operands over several meet over the first generator of the largest
degree that reaches all the others, through its records or as one field
with them (equal values, quadratics whose discriminants multiply to a
square); else over the iterated compositum of the operands' own fields
(a value alone over its generator that generates a smaller field stands
for itself), except in compare, which refines intervals rather than
build one, and except for two equal values over unrelated generators (a
value and its re-parse), which meet over the first one's.  Each operand
over another generator is mapped in once and keeps that image.  So a sum
of products (dot) is summed and reduced modulo m once, and a linear
combination of vectors (combo), the one the geometry builds its points,
cross products, matrix rows, matrix products and images of lifts with,
meets its operands once for the whole vector and
takes one such sum per coordinate; where that would join more than two
generators, each product meets over its own two factors' field first,
and the products are joined.
A rational or tagged value builds its minimal polynomial and isolating
interval only when asked for them (printing, hashing, a square root, an
operation across fields): q*x - p and [p/q, p/q] for p/q, and for g(theta)
the characteristic polynomial of g, with no factorisation; that is the
only way it gets one.  A square root of a square of the field stays in
it, tagged over the same generator.

Candidates (square roots of irrationals, composita, cross-field results)
and the integer polynomials real_roots reads (a polynomial itself, or the
norm of one with irrational coefficients) are factorised only when no
certificate in polys shows them irreducible (Capelli's theorem for
x^2 - a, full degree of a compositum, rational roots read off isolating
intervals, Musser's test); in the geometry all of them fire.  A tagged
value's interval and a compositum's come one way: root selection
(_select_root) on its minimal polynomial, or on a candidate's factors,
over an enclosure that refining the generators under it tightens.  The
quadratic facts met most often are each settled by one exact test, with
no search: the square root of a rational p/q that is no square is the
root of q*x^2 - p on an isqrt bracket that two signs check;
two quadratic fields have a compositum of full degree unless their
discriminants multiply to a square (no prime search), and that
compositum's quartic and the embedding of its first generator come in
closed form; an embedding t = h(psi) of a quadratic t = c + b*x + a*x^2
stands once 2*a*h(psi) + b has the sign of that polynomial's derivative
at t (one sign over psi), and one of larger degree once t's minimal
polynomial has one root in the hull of h(psi)'s enclosure and t's
interval (one root count, no refinement of psi down to t's interval); a
root count on a quadratic reads two signs at each end, with no Sturm
chain; a square root of a linear radicand (c0 + c1*theta)/d records
theta = (d*x^2 - c0)/c1, with no gcd; a value over a quadratic generator
has its minimal polynomial by substitution (no trace or gcd); the square
root of an a that is no square in Q(a) is the root of m_a(x^2) on a
bracket [lo, hi], lo >= 0, that holds one exactly when [lo^2, hi^2]
holds one root of m_a (a root count on a's own polynomial, none on one
of twice its degree); and arithmetic over a quadratic generator takes no
pseudo-division, enclosure or refinement: a product or a sum of products
folds x^2 once over one denominator, an inverse is one step of the
extended Euclid (polys.invmod), a sign is that of A + B*sqrt(D), D the
discriminant, decided in integers (_quadratic_sign), and a value of a
quadratic field maps into a larger one as n0 + n1*h
(polys.compose_mod).  The same holds one level down over a generator psi
of even quartic minimal polynomial m(x) = M(x^2), a quadratic extension
of u = psi^2 (Loos, 1982): a product or a sum of products folds x^4
once, a quadratic or cubic g maps in by folded products, and a sign is
X's, or X's times the norm X^2 - u*Y^2's, for g(psi) = X + psi*Y (three
signs over u, and none of an interval of u: m'(psi) = 2*psi*M'(u) tells
which root of M u is), so a quadratic t = h(psi) is recorded after one
folded product and one such sign, with no enclosure.

Values are immutable.  The isolating interval may be tightened in place,
a rational or tagged value's minimal polynomial filled in on first use, a
generator's last compositum and the subfields its values generate
recorded, and a value's image in the last generator it was mapped into
kept; each is semantically invisible and written in one attribute, so
values are safe to share between threads (a lost write costs a rebuild).
"""

from fractions import Fraction
from functools import cmp_to_key, reduce
from math import ceil, gcd, isqrt, lcm, prod

from . import polys
from .errors import (
    BoundExceededError, DivisionByZeroError, InternalConsistencyError, OutOfRangeError,
    PreconditionError, ZeroPolynomialError, brief,
)

LESS, EQUAL, GREATER = -1, 0, 1

# Largest candidate polynomial root selection will build.  The certified
# degree-64 sum of six square roots takes about a second and a half; one
# that no certificate covers goes to factorisation, which at degree 64 can
# take minutes.  Each nested square root doubles the degree.
_MAX_CAND_DEGREE = 256

# Largest k in t1 + k*t2 a compositum tries; k = 1 fails on shared subfields
_MAX_SHIFT = 8

#: the largest Chebyshev index chebyshev_values gives, and so the longest
#: graph distance, diameter and rotation ladder, in steps
MAX_STEPS = 64

# g for a generator over itself: the polynomial x
_X = ((0, 1), 1)


class AlgReal:
    """An exact real algebraic number."""

    # _tag: (theta, g), theta None for a rational, or None for a generator;
    # _root: (min_poly, isolating interval, sign of min_poly at its lower
    # end), None until a tagged value or a rational needs it.  On a
    # generator psi only: _embeds, pairs (t, h) of subfield generators with
    # t = h(psi), checked exactly when recorded (see _record) or built from
    # a value h(psi) (see _own), and _joined, the last compositum it was
    # joined into (see _compositum), else None.  _image, (theta, g) for the
    # last generator theta the value was mapped into, unset until then
    __slots__ = ("_root", "_tag", "_embeds", "_joined", "_image")

    def __init__(self, value=0):
        self._root = None
        self._tag = (None, _literal(value))

    @classmethod
    def _make(cls, min_poly, interval):
        """Wrap an already-validated (irreducible poly, isolating interval)."""
        if polys.degree(min_poly) == 1:
            return _quotient(-min_poly[0], min_poly[1])
        self = object.__new__(cls)
        lo, hi = interval
        if type(lo) is not Fraction or type(hi) is not Fraction:
            lo, hi = Fraction(lo), Fraction(hi)
        s = polys.sign_at(min_poly, lo)
        if s == 0:
            raise InternalConsistencyError("isolating endpoint is a root")
        self._root = (min_poly, (lo, hi), s)
        self._tag = None
        self._embeds = ()
        self._joined = None
        return self

    @classmethod
    def _over(cls, theta, g):
        """g(theta) for an element g reduced modulo theta's minimal
        polynomial; a constant g is a rational, over no generator."""
        if len(g[0]) <= 1:
            theta = None
        elif g == _X:
            return theta
        self = object.__new__(cls)
        self._root = None
        self._tag = (theta, g)
        return self

    @classmethod
    def from_root(cls, p, index):
        """The index-th real root (ascending, 0-based) of p (real_roots)."""
        roots = real_roots(p)
        if not 0 <= index < len(roots):
            raise OutOfRangeError(
                f"root index {brief(index)} out of range (poly has {len(roots)} real roots)"
            )
        return roots[index]

    # -- basic structure ----------------------------------------------------

    def _isolated(self):
        r = self._root
        if r is None:
            r = self._root = _isolate(*self._tag)
        return r

    @property
    def min_poly(self):
        return self._isolated()[0]

    @property
    def interval(self):
        return self._isolated()[1]

    @property
    def degree(self):
        return polys.degree(self.min_poly)

    @property
    def is_rational(self):
        tag = self._tag
        return tag is not None and tag[0] is None

    def as_rational(self):
        if not self.is_rational:
            raise OutOfRangeError("not a rational value")
        return self.interval[0]

    def _bracket(self):
        """A closed interval holding the value: the isolating interval once
        known, else g's range over theta's interval."""
        r = self._root
        if r is not None:
            return r[1]
        theta, g = self._tag
        return _enclose(g, theta._root[1])

    def refine(self):
        """Halve the isolating interval, or theta's while a tagged value has
        none yet (no-op for rationals)."""
        if self.is_rational:
            return
        r = self._root
        if r is None:
            self._tag[0].refine()
            return
        p, (lo, hi), s = r
        (a, b), (c, d) = lo.as_integer_ratio(), hi.as_integer_ratio()
        mid = Fraction(a * d + c * b, 2 * b * d)
        v = polys.sign_at(p, mid)
        if v == 0:
            raise InternalConsistencyError("rational root of irreducible poly")
        self._root = (p, (mid, hi) if v == s else (lo, mid), s)

    def sign(self):
        """Exact sign in {-1, 0, 1}: a rational's from its numerator, a
        value's over a quadratic generator or one of even quartic minimal
        polynomial in closed form (_quadratic_sign, _even_quartic_sign),
        any other's by refinement (_refined_sign)."""
        if self.is_rational:
            p = _ints(self._tag[1])[0]
            return (p > 0) - (p < 0)
        theta, g = self._tag or (self, _X)
        m = theta._root[0]
        if len(m) == 3:
            return _quadratic_sign(theta._root, g)
        if polys.even_quartic(m):
            return _even_quartic_sign(theta, g)
        return _refined_sign(self)

    def approx(self, bits=64):
        """The greatest multiple of 2**-bits not above the value (rationals
        exactly), so the result depends on the value alone, not on how far
        the interval happens to be refined (the ``to_float`` contract)."""
        if self.is_rational:
            return self.as_rational()
        scale = 1 << bits
        while True:
            lo, hi = self._bracket()
            cell = lo.numerator * scale // lo.denominator
            if hi.numerator * scale // hi.denominator == cell:
                return Fraction(cell, scale)
            self.refine()

    # -- operators ----------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return neg(self)

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise OutOfRangeError("only non-negative integer powers")
        out = AlgReal(1)
        base = self
        while n:
            if n & 1:
                out = mul(out, base)
            base = mul(base, base) if n > 1 else base
            n >>= 1
        return out

    def __eq__(self, other):
        try:
            other = as_algreal(other)
        except (TypeError, ValueError):
            return NotImplemented
        return compare(self, other) == EQUAL

    def __lt__(self, other):
        return compare(self, other) == LESS

    def __le__(self, other):
        return compare(self, other) != GREATER

    def __gt__(self, other):
        return compare(self, other) == GREATER

    def __ge__(self, other):
        return compare(self, other) != LESS

    def __hash__(self):
        return hash(self.as_rational() if self.is_rational else self.min_poly)

    def __float__(self):
        return float(self.approx(60))

    def __repr__(self):
        if self.is_rational:
            return f"AlgReal({self.as_rational()})"
        return f"AlgReal(deg {self.degree}, ~{float(self):.12g})"


def as_algreal(v):
    return v if isinstance(v, AlgReal) else AlgReal(v)


def _literal(value):
    """The constant element (n, d) of a rational value given as an int, a
    bool, a Fraction or a string, read as Fraction reads it."""
    if type(value) is int:
        p, q = value, 1
    else:
        p, q = (value if type(value) is Fraction else Fraction(value)).as_integer_ratio()
    return ((p,) if p else (), q)


def _ints(g):
    """(p, q) for the constant element g = p/q, q > 0."""
    n, q = g
    return (n[0] if n else 0), q


def _quotient(p, q):
    """p/q for ints p and q > 0, as a constant element over no generator."""
    g = gcd(p, q)
    p //= g
    return AlgReal._over(None, ((p,) if p else (), q // g))


def _range(g, interval):
    """(glo, ghi, scale): g(t) lies in [glo, ghi] / scale for every t in
    `interval`, by Horner's rule in exact interval arithmetic, in integers:
    with interval = [a, b] / d and g = (n, den) of degree k, [glo, ghi] is
    the range of n(t) * d^k over it, and scale = den * d^k."""
    (a, da), (b, db) = interval[0].as_integer_ratio(), interval[1].as_integer_ratio()
    d = lcm(da, db)
    a, b = a * (d // da), b * (d // db)
    n, scale = g
    glo = ghi = n[-1]
    dk = 1
    for c in reversed(n[:-1]):
        dk *= d
        prods = (glo * a, glo * b, ghi * a, ghi * b)
        glo, ghi = min(prods) + c * dk, max(prods) + c * dk
    return glo, ghi, scale * dk


def _quadratic_sign(root, g):
    """The sign of g(theta) = (n0 + n1*x)/d, n1 != 0, for theta the root
    (min_poly, interval, sign at its lower end) of m = c0 + c1*x + c2*x^2,
    c2 > 0, of discriminant D > 0, with no enclosure: 2*c2*d*g(theta) is
    A + B*sqrt(D) for A = 2*c2*n0 - c1*n1 and B = n1 at m's larger root
    (where m rises: m < 0 at its lower end), -n1 at the smaller
    (_surd_sign)."""
    (c0, c1, c2), _, s = root
    (n0, n1), _ = g
    # s != 0 (no isolating endpoint is a root), so s <= 0 would decide the same
    return _surd_sign(2 * c2 * n0 - c1 * n1, n1 if s < 0 else -n1, c1 * c1 - 4 * c0 * c2)


def _surd_sign(a, b, D):
    """The sign of a + b*sqrt(D), D > 0 no square, in integers: a's for
    b = 0, else b's unless a's differs and a^2 > b^2*D."""
    # No input reaches a boundary of these comparisons but a = b = 0, so
    # each would decide the same strict or not: a = 0 gets b's sign on
    # either side of a > 0 in the second test, b != 0 past the first,
    # a^2 != b^2*D (D is no square) for b != 0, and the last line is
    # reached with a^2 > b^2*D > 0.  a = b = 0 comes only from
    # _even_quartic_sign's X = 0 or Y = 0, where any sign would do.
    if not b:
        return (a > 0) - (a < 0)
    if (a > 0) == (b > 0) or a * a < b * b * D:
        return 1 if b > 0 else -1
    return 1 if a > 0 else -1


def _even_quartic_sign(psi, g):
    """The sign of g(psi) = (n0 + n1*x + n2*x^2 + n3*x^3)/d, d > 0, for
    psi a root of the even quartic m = c0 + c2*x^2 + c4*x^4, with no
    enclosure or refinement.  psi's own sign is its interval's, or where
    that holds 0, + when m(0) = c0 has m's sign s at the lower end.  Over
    u = psi^2, a root of the quadratic M = c0 + c2*y + c4*y^2 (m(x) =
    M(x^2)) of discriminant D, 2*c4*u + c2 = M'(u) = sigma*sqrt(D), where
    m'(psi) = 2*psi*M'(u) has the sign -s of m's derivative at its root,
    so sigma = -s*sign(psi): no interval of u is needed.  2*c4*d*g(psi) is
    X + psi*Y for X = ax + bx*sqrt(D), Y = ay + by*sqrt(D),
    ax = 2*c4*n0 - c2*n2, bx = sigma*n2, and ay, by so from n1, n3.  Its
    sign is X's when X and psi*Y agree in sign or one of them is 0; else
    X's times that of the norm X^2 - u*Y^2 = (X + psi*Y)(X - psi*Y),
    nonzero, of which 2*c4*(X^2 - u*Y^2) = A + B*sqrt(D) for
    p + q*sqrt(D) = Y^2, A = 2*c4*(ax^2 + bx^2*D) + c2*p - sigma*q*D and
    B = 4*c4*ax*bx - sigma*p + c2*q.  Each sign over u is that of a surd
    (_surd_sign)."""
    n0, n1, n2, n3 = g[0] + (0,) * (4 - len(g[0]))
    (c0, _, c2, _, c4), (lo, hi), s = psi._root
    lo, hi = lo.numerator, hi.numerator
    # each comparison decides the same strict or not: at lo = 0, s is
    # c0's sign; at hi = 0, c0's is -s; c0 != 0 and s != 0
    sp = 1 if lo >= 0 or hi > 0 and (c0 > 0) == (s > 0) else -1
    sigma, D = -s * sp, c2 * c2 - 4 * c0 * c4
    ax, bx, ay, by = 2 * c4 * n0 - c2 * n2, sigma * n2, 2 * c4 * n1 - c2 * n3, sigma * n3
    sx, sy = _surd_sign(ax, bx, D), sp * _surd_sign(ay, by, D)
    # X = 0 or Y = 0 skips only the norm, -u*Y^2 < 0 or X^2 > 0, which
    # would give the same sign
    if sx == 0 or sy == 0 or sx == sy:
        return sx or sy
    p, q = ay * ay + by * by * D, 2 * ay * by
    return sx * _surd_sign(2 * c4 * (ax * ax + bx * bx * D) + c2 * p - sigma * q * D,
                           4 * c4 * ax * bx - sigma * p + c2 * q, D)


def _refined_sign(v):
    """The sign of an irrational v, never zero: its isolating interval's,
    else the range of g over theta's interval (_range), once either lies
    on one side of 0, refining theta or v until it does."""
    while True:
        r = v._root
        if r is None:   # g's range over theta's interval, over a scale > 0
            theta, g = v._tag
            lo, hi, _ = _range(g, theta._root[1])
        else:
            lo, hi = r[1]
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        v.refine()


def _enclose(g, interval):
    """A closed interval holding g(t) for every t in `interval`: _range
    rounded outward to multiples of a power of two below its width, which
    keeps the endpoints' denominators small (Sturm counts evaluate whole
    chains there) and the width within twice the exact one."""
    glo, ghi, scale = _range(g, interval)
    k = max(scale.bit_length() - (ghi - glo).bit_length() + 1, 0)
    return (Fraction((glo << k) // scale, 1 << k),
            Fraction(-((-ghi << k) // scale), 1 << k))


def _isolate(theta, g):
    """(min_poly, isolating interval, sign at its lower end) of g(theta):
    the root of its minimal polynomial f that g's enclosure over theta's
    interval selects (_select_root, refining theta), with no factorisation;
    of a rational p/q (theta None), q*x - p and the point interval.  f is
    read off traces, or over a quadratic theta, a root of
    m = c0 + c1*x + c2*x^2, for g = (n0 + n1*x)/d, n1 != 0, by putting
    theta = (d*y - n0)/n1 into m: c2*d^2*y^2 - d*(2*n0*c2 - n1*c1)*y
    + (n0^2*c2 - n0*n1*c1 + n1^2*c0), made primitive, whose root counts
    read two signs at each end, with no trace, gcd or Sturm chain."""
    if theta is None:
        p, q = _ints(g)
        r = Fraction(p, q)
        return (-p, q), (r, r), 0      # no rational's sign at its lower end is read
    m = theta.min_poly
    if len(m) == 3:
        (c0, c1, c2), ((n0, n1), d) = m, g
        f = polys.primitive((n0 * n0 * c2 - n0 * n1 * c1 + n1 * n1 * c0,
                             d * (n1 * c1 - 2 * n0 * c2), c2 * d * d))
    else:
        f = polys.minimal_polynomial(g, m)
    return _select_root((f,), lambda: _enclose(g, theta.interval), theta.refine)._root


# -- generators ---------------------------------------------------------------
# A generator psi may record older generators t of subfields as t = h(psi)
# (_embeds).  Square roots record the field they were taken over (towers),
# and operations across two unrelated fields record both in a primitive
# element of their compositum, so values built from one another keep a
# common generator and their arithmetic stays polynomial arithmetic.

def _gen(v):
    """(theta, g) with v = g(theta): a tagged value's tag, (v, x) for a
    generator, and (None, its constant element) for a rational, which may
    also come as anything as_algreal accepts."""
    if isinstance(v, AlgReal):
        return v._tag or (v, _X)
    return None, _literal(v)


def _one_field(vs):
    """(theta, g_1, ..., g_k) with vs[i] = g_i(theta), by one scan, when
    the operands lie over one generator theta or none (None); else None."""
    theta, gs = None, []
    for v in vs:            # _gen's reading, inline: no call per operand
        if isinstance(v, AlgReal):
            t, g = v._tag or (v, _X)
        else:
            t, g = None, _literal(v)
        if t is not None and t is not theta:
            if theta is not None:
                return None
            theta = t
        gs.append(g)
    return (theta, *gs)


def _field(vs, join=None):
    """(theta, g_1, ..., g_k) with vs[i] = g_i(theta), for operands as _gen
    reads them: where the operands of one operation meet, _one_field's
    answer when there is one.  Over several generators, theta is the
    first of the largest degree that reaches each of the others as
    t = h(theta) (_reach).  Failing that, two equal values (a value and its
    re-parse, which a join would reach only by factorising a candidate)
    meet over the first one's generator; else theta is the compositum the
    operands' own fields (_own) are joined into one at a time, the largest
    first (_adjoin).  Each g over another generator is mapped into theta
    once (_image), and constants are kept.  join caps how many generators
    may be joined: None where none reaches the others and they number more
    than join, never with join None (the default)."""
    common = _one_field(vs)
    if common is not None:
        return common
    es = list(map(_gen, vs))
    thetas = list({id(t): t for t, _ in es if t is not None}.values())
    top = max(t.degree for t in thetas)
    for theta in thetas:
        # a field of lower degree contains no larger one
        hs = _reaches(theta, thetas) if theta.degree == top else None
        if hs is not None:
            break
    else:           # none reaches the others
        if join is not None and len(thetas) > join:
            return None
        if len(vs) == 2 and vs[0].min_poly == vs[1].min_poly and _compare_isolated(*vs) == EQUAL:
            return (*es[0], es[0][1])
        es = _own(vs, es)
        thetas = sorted({id(t): t for t, _ in es if t is not None}.values(), key=lambda t: -t.degree)
        theta = reduce(_adjoin, thetas)
        hs = _reaches(theta, thetas)
    return (theta, *(g if t is None or t is theta else _image(v, g, hs[id(t)], theta)
                     for v, (t, g) in zip(vs, es)))


def _own(vs, es):
    """es with each value v = g(t) that alone lies over its generator t
    and generates a proper subfield of t's field taken as (u, x): u the
    generator of v's own field (its minimal polynomial and interval), which
    t records as u = g(t).  A join then builds on the fields of the
    operands, not on the larger ones of their generators."""
    over, own = {}, {}
    for v, (t, g) in zip(vs, es):
        if t is not None:
            over.setdefault(id(t), {})[id(v)] = v, t, g
    for values in over.values():
        (v, t, g), *more = values.values()
        # a value over a quadratic generator generates its whole field
        if not more and g is not _X and t.degree > 2 and v.degree < t.degree:
            own[id(v)] = u = AlgReal._make(v.min_poly, v.interval)
            t._embeds += ((u, g),)
    return [(own[id(v)], _X) if id(v) in own else e for v, e in zip(vs, es)]


def _reaches(theta, thetas):
    """{id(t): h} with t = h(theta) for each generator t in thetas but
    theta (_reach), or None when theta reaches one of them not."""
    hs = {id(t): _reach(theta, t) for t in thetas if t is not theta}
    return None if None in hs.values() else hs


def _adjoin(psi, t):
    """psi when it reaches t, else a compositum over psi that does; a
    compositum t = t1 + t2 through its summands, each adjoined in turn."""
    if _reach(psi, t) is not None:
        return psi
    parts = [u for u, _ in _summands(t)]
    return reduce(_adjoin, parts, psi) if parts else _compositum(psi, t)


def _image(v, g, h, theta):
    """g(h(theta)) reduced modulo theta's minimal polynomial, for v = g(t)
    over a generator t = h(theta): the image v keeps from the last time it
    was mapped into theta, else polys.compose_mod's, then kept (one slot,
    read with a default, so a value never mapped writes nothing)."""
    image = getattr(v, "_image", None)
    if image is not None and image[0] is theta:
        return image[1]
    g = polys.compose_mod(g, h, theta.min_poly)
    v._image = (theta, g)
    return g


def _reach(psi, t):
    """t as a polynomial in psi, both generators, when psi's field is known
    to contain t: through psi's recorded embeddings, depth first, down to t
    or a generator equal to it; a quadratic t from quadratics so reached
    (_square_class); a compositum t = t1 + t2 as the sum of t1 and t2
    reached that way.  Else None."""
    stack, seen, quads, p = [(psi, ())], {id(psi)}, [], t.min_poly
    while stack:
        s, path = stack.pop()      # path: (k, u) from psi down, s = k(u)
        m = s.min_poly
        if s is t or m == p and _compare_isolated(s, t) == EQUAL:
            return _down(path)
        if len(m) == 3:
            quads.append((s, path))
        for u, k in s._embeds:
            if id(u) not in seen:
                seen.add(id(u))
                stack.append((u, path + ((k, s),)))
    if len(p) == 3 and quads:
        return _square_class(t, quads, psi.min_poly)
    parts = [_reach(psi, u) for u, _ in _summands(t)]
    if parts and None not in parts:
        return polys.qadd(*parts)
    return None


def _down(path):
    """The generator a path of embeddings from psi ends at, as a polynomial
    in psi: each (k, u) on it maps the next generator down to k(u)."""
    h = _X
    for k, u in reversed(path):     # x(k) is k, stored reduced
        h = k if h is _X else polys.compose_mod(h, k, u.min_poly)
    return h


def _square_class(t, quads, m):
    """A quadratic generator t as a polynomial in psi (minimal polynomial
    m), from the fewest quadratic generators s of psi's field (with their
    paths) whose discriminants D_s times t's D multiply to a square k^2,
    as sqrt(D) = k * prod(sqrt(D_s)) / prod(D_s); else None.  For a root x
    of c0 + c1*x + c2*x^2, 2*c2*x + c1 = sigma*sqrt(D), sigma the sign of
    the derivative there, which is -sign_lo."""
    p = t.min_poly
    for mask in sorted(range(1, 1 << len(quads)), key=int.bit_count):
        chosen = [q for i, q in enumerate(quads) if mask >> i & 1]
        ds = prod(polys.discriminant(s.min_poly) for s, _ in chosen)
        k = polys.int_sqrt(polys.discriminant(p) * ds)
        if k is not None:
            break
    else:
        return None
    root = polys.qpoly((-t._root[2] * k,), ds)
    for s, path in chosen:
        c = -s._root[2] * 2 * s.min_poly[2]
        root = polys.mulmod(root, polys.qadd(polys.qscale(_down(path), c),
                                             polys.qpoly((-s._root[2] * s.min_poly[1],))), m)
    return polys.qscale(polys.qsub(root, polys.qpoly((p[1],))), 1, 2 * p[2])


def _summands(t):
    """The generators t1, t2 of a compositum t = t1 + t2: its first two
    embeddings, whose polynomials then add up to x (not for k*t2, k > 1)."""
    e = t._embeds[:2]
    return e if len(e) == 2 and polys.qadd(e[0][1], e[1][1]) == _X else ()


def _record(psi, embeds):
    """Give the new generator psi its embeddings (t, h) after checking each
    exactly: m_t(h(x)) reduces to 0 modulo m_psi, so h(psi) is a root of
    m_t.  For a quadratic m_t = c + b*x + a*x^2, h(psi) is t, not its
    conjugate t', when 2*a*h(psi) + b has the sign of m_t's derivative at
    t, -s_t for s_t m_t's sign at the lower end of t's interval, since
    2*a*t' + b = -(2*a*t + b): one sign over psi (AlgReal.sign, in closed
    form over a quadratic or even quartic psi).  Else m_t has exactly one
    root (a Sturm count) in the hull of an enclosure of h(psi) and t's
    isolating interval, which holds both, so h(psi) = t.  While the hull
    holds more roots, psi's interval is halved k times, k the bit length
    of the enclosure's width over that of t's interval, rounded up: about
    log2 of that ratio enclosures in all, not one per halving.  An
    enclosure that leaves t's interval shows h(psi) to be another root."""
    m = psi.min_poly
    for t, h in embeds:
        mt = t.min_poly
        # m_t(h) over any positive denominator reduces to 0 or not alike
        if polys.compose_mod((mt, 1), h, m)[0]:
            raise InternalConsistencyError("embedding is not a root of the minimal polynomial")
        if len(mt) == 3:
            (nh, dh), (_, b, a) = h, mt
            slope = polys.add([2 * a * v for v in nh], (b * dh,))     # dh*(2*a*h + b)
            # a sign reads the numerators alone: any denominator would do
            if AlgReal._over(psi, (slope, 1)).sign() != -t._root[2]:
                raise InternalConsistencyError("embedding is another root")
            continue
        lo, hi = t.interval
        for _ in range(20000):      # a cap that only a check that never converges meets
            elo, ehi = _enclose(h, psi.interval)
            # t is irrational, so lo < t < hi: an enclosure that meets t's
            # interval at one end only holds no t either, and <= would
            # refuse it one refinement sooner
            if ehi < lo or hi < elo:
                raise InternalConsistencyError("embedding is another root")
            if polys.count_roots_halfopen(mt, min(lo, elo), max(hi, ehi)) == 1:
                break
            for _ in range(ceil((ehi - elo) / (hi - lo)).bit_length()):
                psi.refine()
        else:
            raise InternalConsistencyError("embedding check did not converge")
    psi._embeds = tuple(embeds)


def _tower(root, a):
    """Record in root = sqrt(a) the generator theta of a = g(theta) when a
    generates theta's whole field: theta is then the one common root of
    m(x) and g(x) - root^2, their gcd over Q(root) (polys.gcd_mod).  For a
    linear g = (c0 + c1*x)/d that gcd is x - (d*root^2 - c0)/c1, so theta
    is recorded as h = (d*x^2 - c0)/c1, reduced once root has degree
    above 2, with no gcd run: _record's check that m(h(root)) vanishes is
    what makes it the gcd."""
    theta, (c, d) = _gen(a)
    if len(c) == 2 and root.degree > 2:
        _record(root, ((theta, polys.qpoly((-c[0], 0, d), c[1])),))
    elif a.degree == theta.degree:
        g = [polys.qsub(polys.qpoly(c[:1], d), ((0, 0, 1), 1)), *(polys.qpoly((v,), d) for v in c[1:])]
        f = polys.gcd_mod([polys.qpoly((v,)) for v in theta.min_poly], g, root.min_poly)
        _record(root, ((theta, polys.qscale(f[0], -1)),))


def _compositum(t1, t2):
    """A primitive element psi = t1 + k*t2 of Q(t1, t2), for generators that
    do not reach each other, recording t1 = h1(psi) and t2 = (psi - t1) / k.
    psi is the root of the factor of t1 + k*t2's candidate that the sum of
    t1's interval and k times t2's selects (_select_root); for two
    quadratics the one factor and h1 come in closed form (_quadratic_sum),
    else h1 gives t1 as the one common root of m1(x) and m_k(psi - x), m_k
    that of k*t2, their gcd over Q(psi) (Trager, SYMSAC 1976; Loos,
    1982).  k = 1 unless psi is rational or that gcd is not linear, else up
    to _MAX_SHIFT; past the candidate budget, BoundExceededError, and past
    k = _MAX_SHIFT too.  Each of t1 and t2 remembers psi as the last
    compositum it was joined into, and a join of either with a generator
    that compositum reaches, no larger than their compositum can be,
    returns it."""
    m1, m2 = t1.min_poly, t2.min_poly
    for s, t in ((t1, t2), (t2, t1)):
        psi = s._joined
        if psi is not None and psi.degree <= t1.degree * t2.degree and _reach(psi, t) is not None:
            return psi
    n2 = len(m2) - 1
    _check_cand_degree((len(m1) - 1) * n2)
    for k in range(1, _MAX_SHIFT + 1):
        if len(m1) == len(m2) == 3:
            # two quadratics have D1*D2 no square here, or _reach would meet them
            m, h1 = _quadratic_sum(m1, m2)
            factors = (m,)
        else:
            mk = polys.primitive([c * k ** (n2 - i) for i, c in enumerate(m2)])
            factors, h1 = polys.composed_factors(m1, mk), None
        psi = _select_root(factors, lambda: tuple(a + k * b for a, b in zip(t1.interval, t2.interval)),
                           lambda: (t1.refine(), t2.refine()))
        if h1 is None and not psi.is_rational:
            m = psi.min_poly
            # m_k(psi - x), the shift of m_k(-z) over Q(psi)
            f = polys.gcd_mod([polys.qpoly((c,)) for c in m1], polys.shift(
                [(-1) ** i * c for i, c in enumerate(mk)], m), m)
            h1 = polys.qscale(f[0], -1) if len(f) == 2 else None
        if h1 is not None:
            _record(psi, ((t1, h1), (t2, polys.qscale(polys.qsub(_X, h1), 1, k))))
            t1._joined = t2._joined = psi
            return psi
    raise BoundExceededError(f"no primitive element t1 + k*t2 for k up to {_MAX_SHIFT}")


def _quadratic_sum(m1, m2):
    """(m, h1): the minimal polynomial m of psi = t1 + t2 and t1 = h1(psi),
    for roots t_i of quadratics m_i = c_i + b_i*x + a_i*x^2 of
    discriminants D_i with D1*D2 no square, in closed form.  With
    L = 2*a1*a2 and u = -(b1*a2 + b2*a1), w = L*psi - u is r1 + r2 for
    r1 = a2*(2*a1*t1 + b1) and r2 = a1*(2*a2*t2 + b2), whose squares are
    P = a2^2*D1 and Q = a1^2*D2; so (w^2 - P - Q)^2 = 4*P*Q gives m, and
    w^3 - (3P + Q)*w = 2*(Q - P)*r1 with t1 = (r1 - a2*b1) / L.  Q != P,
    since D1*D2 is no square."""
    (_, b1, a1), (_, b2, a2) = m1, m2
    L, u = 2 * a1 * a2, -(b1 * a2 + b2 * a1)
    P, Q = a2 * a2 * polys.discriminant(m1), a1 * a1 * polys.discriminant(m2)
    w = (-u, L)
    w2 = polys.mul(w, w)
    f = polys.sub(w2, (P + Q,))
    m = polys.primitive(polys.sub(polys.mul(f, f), (4 * P * Q,)))
    r1 = polys.mul(w, polys.sub(w2, (3 * P + Q,)))
    return m, polys.qpoly(polys.sub(r1, (2 * (Q - P) * a2 * b1,)), 2 * (Q - P) * L)


# -- root selection ---------------------------------------------------------

def _select_root(factors, interval_fn, refine_fn):
    """The root, as an AlgReal, of the one irreducible factor in `factors`
    vanishing at the value interval_fn brackets (strictly, and ever more
    tightly with each refine_fn)."""
    for _ in range(20000):
        lo, hi = interval_fn()
        counts = [polys.count_roots_halfopen(f, lo, hi) for f in factors]
        if sum(counts) == 1:
            return AlgReal._make(factors[counts.index(1)], (lo, hi))
        refine_fn()
    raise InternalConsistencyError("root selection did not converge")


def _check_cand_degree(n):
    if n > _MAX_CAND_DEGREE:
        raise BoundExceededError(
            f"candidate polynomial of degree {n} exceeds {_MAX_CAND_DEGREE}")


# -- field operations -------------------------------------------------------

# theta None: two rationals p/q and r/s, in integer arithmetic over one
# denominator.

def add(a, b):
    theta, ga, gb = _field((a, b))
    if theta is None:
        (p, q), (r, s) = _ints(ga), _ints(gb)
        return _quotient(p * s + r * q, q * s)
    return AlgReal._over(theta, polys.qadd(ga, gb))


def neg(a):
    theta, (n, d) = _gen(a)
    return AlgReal._over(theta, (tuple(-c for c in n), d))


def sub(a, b):
    theta, ga, gb = _field((a, b))
    if theta is None:
        (p, q), (r, s) = _ints(ga), _ints(gb)
        return _quotient(p * s - r * q, q * s)
    return AlgReal._over(theta, polys.qsub(ga, gb))


def mul(a, b):
    theta, ga, gb = _field((a, b))
    if theta is None:
        (p, q), (r, s) = _ints(ga), _ints(gb)
        return _quotient(p * r, q * s)
    return AlgReal._over(theta, polys.mulmod(ga, gb, theta.min_poly))


def _invert(a):
    theta, g = _gen(a)
    if not g[0]:
        raise DivisionByZeroError("division by zero")
    m = () if theta is None else theta.min_poly     # a constant's inverse reads no m
    return AlgReal._over(theta, polys.invmod(g, m))


def div(a, b):
    return mul(a, _invert(b))


def compare(a, b):
    """Exact trichotomy: LESS (-1), EQUAL (0) or GREATER (1)."""
    # no compositum: two degree-8 fields would build a degree-64 candidate
    # to decide what refining the two intervals decides
    common = _field((a, b), join=0)
    if common is None:
        return _compare_isolated(a, b)
    theta, ga, gb = common
    if theta is None:
        (p, q), (r, s) = _ints(ga), _ints(gb)
        d = p * s - r * q
        return (d > 0) - (d < 0)
    return AlgReal._over(theta, polys.qsub(ga, gb)).sign()


def dot(xs, ys):
    """sum_i xs[i] * ys[i]: the products summed over the generator the
    operands meet over (_terms), and reduced once (_sum).  The result lies
    over that generator, a rational sum over none."""
    k = len(xs) + 1
    common = _terms(xs, ys, 1)
    return _sum(common[0], common[1:k], common[k:])


def combo(cs, vs):
    """The linear combination sum_i cs[i] * vs[i] of vectors vs[i], each
    coordinate the value dot gives it.  The operands meet once for the
    whole vector (_terms), and each coordinate is one sum (_sum) over that
    generator."""
    k, n = len(cs), len(vs[0])
    theta, *gs = _terms(cs, [x for v in vs for x in v], n)
    return tuple(_sum(theta, gs[:k], gs[k + j::n]) for j in range(n))


def _terms(cs, xs, n):
    """(theta, g_1, ...) for the coefficients cs and then the values xs,
    n to each, as _field meets them; over several generators a zero term
    (a pair with a zero factor, n = 1, or a vector with a zero coefficient)
    meets as zeros, and joins no field.  Where the rest would join more
    than two generators, each product cs[i] * xs[i*n + j] is taken over
    its two factors' field first, and the products, with coefficients 1,
    are met in their place: a join of the products' fields, which may be
    far smaller than the compositum of all the factors'."""
    common = _one_field((*cs, *xs))
    if common is None:
        zero = [not (_gen(c)[1][0] and (n > 1 or _gen(xs[i])[1][0])) for i, c in enumerate(cs)]
        common = _field([0 if z else c for c, z in zip(cs, zero)]
                        + [0 if zero[j // n] else x for j, x in enumerate(xs)], join=2)
    if common is None:
        products = (_sum(t, (g,), (h,)) for t, g, h in (
            _field((c, x)) for i, c in enumerate(cs) for x in xs[i * n:i * n + n]))
        common = _field((*(1,) * len(cs), *products))
    return common


def _sum(theta, xs, ys):
    """sum_i xs[i](theta) * ys[i](theta) for elements reduced modulo
    theta's minimal polynomial, the sum reduced once (polys.dotmod); for
    constants (theta None), the integer products summed over one
    denominator."""
    if theta is not None:
        return AlgReal._over(theta, polys.dotmod(xs, ys, theta.min_poly))
    num, den = 0, 1
    for (nx, qx), (ny, qy) in zip(xs, ys):
        if not (nx and ny):     # a zero term
            continue
        p, q = nx[0] * ny[0], qx * qy
        if q != den:
            g = gcd(q, den)
            num, p, den = num * (q // g), p * (den // g), den * (q // g)
        num += p
    return _quotient(num, den)


def _compare_isolated(a, b):
    """Trichotomy of two irrationals by refining their isolating intervals;
    equal values share a minimal polynomial and a root in both intervals."""
    same_poly = a.min_poly == b.min_poly
    for _ in range(100000):
        (alo, ahi), (blo, bhi) = a.interval, b.interval
        if ahi < blo:
            return LESS
        if bhi < alo:
            return GREATER
        if same_poly:
            ilo, ihi = max(alo, blo), min(ahi, bhi)
            if polys.count_roots_halfopen(a.min_poly, ilo, ihi) >= 1:
                return EQUAL
        a.refine()
        b.refine()
    raise InternalConsistencyError("comparison did not converge")


def sqrt_nonneg(a):
    """Exact square root of a >= 0.  A rational p/q that is no rational
    square gives the generator of q*x^2 - p, irreducible by Capelli's
    theorem, on _sqrt_interval's bracket [lo, hi]: lo >= 0, and the signs
    q*lo^2 - p < 0 < q*hi^2 - p place exactly one root in it, since the
    other one, -sqrt(p/q), is negative.  An irrational a takes a tower over
    a generator of its whole field, or asks one certificate
    (polys.sqrt_certificate): a square root h(a) inside its field, mapped
    to a's generator, or else the root of m_a(x^2), or of its factor, that
    the bracket of its interval holds (_sqrt_of_nonsquare when a is shown
    no square, else Sturm counts on each factor), which records a's
    generator (_tower)."""
    a = as_algreal(a)
    s = a.sign()
    if s < 0:
        raise OutOfRangeError("square root of a negative value")
    if s == 0:
        return AlgReal(0)
    if a.is_rational:
        r = a.as_rational()
        root = polys.rational_sqrt(r)
        if root is not None:
            return AlgReal(root)
        p, q = r.as_integer_ratio()
        m = (-p, 0, q)
        lo, hi = _sqrt_interval(a.interval)
        if polys.sign_at(m, lo) >= 0 or polys.sign_at(m, hi) <= 0:
            raise InternalConsistencyError("square root bracket holds no root")
        return AlgReal._make(m, (lo, hi))
    theta = _gen(a)[0]
    n = theta.degree
    if a.degree < n and 2 * n <= _MAX_CAND_DEGREE:
        # a lies in a proper subfield of Q(theta); a * u^2 for some
        # u = theta + k generates all of it, and its root is a tower
        # over theta: sqrt(a) = sqrt(a * u^2) / |u|
        for k in range(n + 1):
            u = add(theta, k)
            v = mul(a, mul(u, u))
            if v.degree == n:
                return div(sqrt_nonneg(v), u if u.sign() > 0 else neg(u))
    m = a.min_poly
    h = polys.sqrt_certificate(m)
    if h:       # sqrt(a) = h(a), mapped to a's generator
        theta, g = _gen(a)
        root = AlgReal._over(theta, polys.compose_mod(h, g, theta.min_poly))
        return root if root.sign() > 0 else neg(root)
    _check_cand_degree(2 * a.degree)
    if h is False:
        root = _sqrt_of_nonsquare(a)
    else:
        root = _select_root(polys.factor_int(polys.cand_sqrt(m)),
                            lambda: _sqrt_interval(a.interval), a.refine)
    _tower(root, a)
    return root


def _sqrt_of_nonsquare(a):
    """sqrt(a) for an irrational a > 0 that is no square in Q(a): the root
    of m(x^2), m = a's minimal polynomial, irreducible then
    (polys.sqrt_certificate), on the bracket [lo, hi] of a's interval
    (_sqrt_interval), once that holds exactly one root.  Its roots in
    (lo, hi], lo >= 0, are the square roots of m's roots in (lo^2, hi^2],
    so one root count on m itself decides, with no chain of degree 2n (and
    none at all for a quadratic m); the radicand is refined until it reads
    1."""
    m = a.min_poly
    for _ in range(20000):
        lo, hi = _sqrt_interval(a.interval)
        if polys.count_roots_halfopen(m, lo * lo, hi * hi) == 1:
            return AlgReal._make(polys.cand_sqrt(m), (lo, hi))
        a.refine()
    raise InternalConsistencyError("square root selection did not converge")


def _sqrt_interval(interval):
    """sqrt(max(lo, 0)) rounded down and sqrt(hi) rounded up, each to 2^-16
    of its own denominator.  A rational radicand (a point interval) gets
    one bracket, which sqrt_nonneg checks by two signs.  An irrational
    one's endpoints tend to it, so their denominators grow without bound,
    and the bracket tightens with every refinement of the radicand, as
    _select_root needs."""
    lo, hi = max(interval[0], 0), interval[1]
    return (Fraction(isqrt(lo.numerator * lo.denominator << 32), lo.denominator << 16),
            Fraction(isqrt(hi.numerator * hi.denominator << 32) + 1, hi.denominator << 16))


# -- polynomial roots -------------------------------------------------------

def real_roots(p):
    """All distinct real roots, ascending, of a polynomial with int or
    AlgReal coefficients, which meet once (_field).  N is p over no
    generator, else p's norm (polys.norm; degree deg(p) * n over a
    generator of degree n, within the candidate budget).  An irreducible
    factor f of N (polys.irreducible_factors, which reads N's rational
    roots off isolating intervals where its prime walk leaves room for
    them, so the norm of a diagonal map's characteristic cubic factorises
    with no sympy) shares with p the roots of their gcd g over Q(theta)
    (polys.gcd_mod): all of f's for g = f, g's over theta for a linear g
    or by the quadratic formula, so no root of f is joined with theta to
    be tested; a larger g keeps f's real roots r with p(r) = 0 (one dot)."""
    if not all(isinstance(v, (int, AlgReal)) and not isinstance(v, bool) for v in p):
        raise PreconditionError("polynomial coefficients must be integers or algebraic numbers")
    theta, *gs = _field(p)
    while gs and not gs[-1][0]:
        gs.pop()
    if not gs:
        raise ZeroPolynomialError("the zero polynomial is not a valid input")
    if theta is None:
        N = polys.primitive([Fraction(*_ints(g)) for g in gs])
    else:
        _check_cand_degree((len(gs) - 1) * theta.degree)
        N = polys.norm(gs, theta.min_poly)
    roots = []
    for f in polys.irreducible_factors(N):
        g = f if theta is None else polys.gcd_mod(gs, [*map(polys.qpoly, zip(f))], theta.min_poly)
        if len(g) == 2 < len(f):
            roots.append(AlgReal._over(theta, polys.qscale(g[0], -1)))
        elif len(g) == 3 < len(f):      # x^2 + b x + c
            c, b = (AlgReal._over(theta, e) for e in g[:2])
            if (disc := dot((b, -4), (b, c))).sign() > 0:
                s = sqrt_nonneg(disc)
                roots += [div(sub(s, b), 2), div(add(s, b), -2)]
        elif len(g) > 1:
            rs = [AlgReal._make(f, interval) for interval in polys.isolate_roots(f)]
            roots += rs if len(g) == len(f) else [
                r for r in rs if dot(p, [r ** i for i in range(len(p))]).sign() == 0]
    roots.sort(key=cmp_to_key(compare))
    return roots


def _cosine(c, refusal):
    """c as an AlgReal; OutOfRangeError(refusal) unless -1 <= c <= 1."""
    c = as_algreal(c)
    if compare(c, AlgReal(-1)) == LESS or compare(c, AlgReal(1)) == GREATER:
        raise OutOfRangeError(refusal)
    return c


def chebyshev_values(c):
    """T_0(c), T_1(c), ..., T_MAX_STEPS(c) with T_k(c) = cos(k * arccos c),
    stepped by the exact recurrence T_{k+1} = 2c T_k - T_{k-1}, one dot
    per step; asking for the next one raises BoundExceededError."""
    c = _cosine(c, "Chebyshev argument outside [-1, 1]")
    two_c, prev, cur = mul(2, c), AlgReal(1), c
    for _ in range(MAX_STEPS + 1):
        yield prev
        prev, cur = cur, dot((two_c, -1), (cur, prev))
    raise BoundExceededError(f"Chebyshev indices above {MAX_STEPS} exceed the step budget")


def chebyshev_T(n, c):
    """T_n(c) = cos(n * arccos c), the value chebyshev_values steps to,
    with its refusals in this order: n < 0, c outside [-1, 1], then
    n > MAX_STEPS; reached by doubling (_chebyshev)."""
    if n < 0:
        raise OutOfRangeError("Chebyshev index must be non-negative")
    c = _cosine(c, "Chebyshev argument outside [-1, 1]")
    if n > MAX_STEPS:
        raise BoundExceededError(f"Chebyshev indices above {MAX_STEPS} exceed the step budget")
    return _chebyshev(n, c)


def _chebyshev(n, c):
    """T_n(c) for any n >= 0 over c's own field, with no range check and
    no step cap: the pair (T_k, T_{k+1}) doubles along the bits of n by
    T_{2k} = 2 T_k^2 - 1 and T_{2k+1} = 2 T_k T_{k+1} - c, two dots per
    bit (Mason and Handscomb, "Chebyshev Polynomials", 2003)."""
    t, u = AlgReal(1), c
    for bit in f"{n:b}":
        two_t = mul(2, t)
        odd = dot((two_t, -1), (u, c))
        if bit == "1":
            t, u = odd, dot((mul(2, u), -1), (u, 1))
        else:
            t, u = dot((two_t, -1), (t, 1)), odd
    return t


# -- rational angles --------------------------------------------------------

def is_rational_angle(c):
    """Decide exactly whether arccos(c)/pi is rational."""
    return rational_angle_witness(c) is not None


def _rational_angle_order(c):
    """The m with c = cos(2*pi*k/m), gcd(k, m) = 1, for irrational c; None
    if there is none.  Such a c has degree phi(m)/2 (Lehmer, 1933), so only
    the orders with phi(m) = 2*deg(c) are tried, ascending.  T_m(c) = 1
    exactly when c = cos(2*pi*j/m) for some j, so c's own order divides
    m and, being on the list too, comes no later: the first m whose T_m(c)
    (_chebyshev, over c's own field: no sign, no refinement) is the
    constant 1 is c's."""
    one = AlgReal(1)._tag
    for m in _orders_with_totient(2 * c.degree):
        if _chebyshev(m, c)._tag == one:
            return m
    return None


def _orders_with_totient(n):
    """Every m with phi(m) = n, ascending, by a totient sieve.  Each prime
    p | m has p - 1 | n, and m = n * prod(p/(p - 1)) over those p, so m is
    at most n * prod((d + 1)/d) over the divisors d of n."""
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    top = n * prod(d + 1 for d in divisors) // prod(divisors)
    phi = list(range(top + 1))
    for p in range(2, top + 1):
        if phi[p] == p:  # untouched so far, so p is prime
            for k in range(p, top + 1, p):
                phi[k] -= phi[k] // p
    return tuple(m for m in range(1, top + 1) if phi[m] == n)


def rational_angle_witness(c):
    """For a cosine of a rational angle, return (k, m) with c = cos(k*pi/m),
    gcd-reduced; None if the angle is not a rational multiple of pi.

    Rational cosines go through Niven's theorem; otherwise c + i*sqrt(1-c^2)
    is tested for being a primitive m-th root of unity, T_m(c) = 1, for the
    finitely many orders m with phi(m) = 2*deg(c) (_rational_angle_order).
    """
    c = _cosine(c, "cosine outside [-1, 1]")
    if c.is_rational:
        table = {Fraction(1): (0, 1), Fraction(1, 2): (1, 3),
                 Fraction(0): (1, 2), Fraction(-1, 2): (2, 3),
                 Fraction(-1): (1, 1)}
        return table.get(c.as_rational())
    m = _rational_angle_order(c)
    if m is None:
        return None
    # c.min_poly is the minimal polynomial of cos(2*pi/m); its conjugates
    # cos(2*pi*k/m), k < m/2 coprime to m, fall as k rises, so the number
    # of conjugates above c is the position of c's k in that list
    p = c.min_poly
    above = polys.count_roots_halfopen(p, c.interval[1], polys.root_bound(p))
    k = [k for k in range(1, (m + 1) // 2) if gcd(k, m) == 1][above]
    g = gcd(2 * k, m)
    return (2 * k // g, m // g)


def to_float(a, bits):
    """The greatest multiple of 2**-bits not above a (a itself if rational)."""
    if bits < 1:
        raise OutOfRangeError("bits must be >= 1")
    return as_algreal(a).approx(bits)
