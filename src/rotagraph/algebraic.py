"""Exact arithmetic over the real algebraic numbers.

A number is represented by its (primitive, irreducible, positive-lead)
integer minimal polynomial together with a rational isolating interval
containing exactly that one real root.  Rational values use the degree-1
polynomial ``q*x - p`` and the degenerate interval [r, r].

Values are immutable; the isolating interval may be tightened in place
(a semantically invisible refinement, written atomically), so values are
safe to share between threads.
"""

from fractions import Fraction
from functools import lru_cache
from math import gcd, prod

from . import polys
from .errors import (
    BoundExceededError,
    DivisionByZeroError,
    InternalConsistencyError,
    OutOfRangeError,
)

LESS, EQUAL, GREATER = -1, 0, 1

# Largest candidate polynomial root selection will build.  Factoring one of
# degree 256 takes seconds, one of degree 512 tens of seconds, and each
# nested square root doubles the degree.
_MAX_CAND_DEGREE = 256


class AlgReal:
    """An exact real algebraic number."""

    __slots__ = ("min_poly", "_interval", "_sign_lo")

    def __init__(self, value=0):
        if isinstance(value, AlgReal):
            self.min_poly = value.min_poly
            self._interval = value._interval
            self._sign_lo = value._sign_lo
            return
        r = Fraction(value)
        self.min_poly = (-r.numerator, r.denominator)
        self._interval = (r, r)
        self._sign_lo = 0

    @classmethod
    def _make(cls, min_poly, interval):
        """Wrap an already-validated (irreducible poly, isolating interval)."""
        if polys.degree(min_poly) == 1:
            return cls(Fraction(-min_poly[0], min_poly[1]))
        self = object.__new__(cls)
        self.min_poly = min_poly
        self._interval = (Fraction(interval[0]), Fraction(interval[1]))
        s = polys.evaluate(min_poly, self._interval[0])
        if s == 0:
            raise InternalConsistencyError("isolating endpoint is a root")
        self._sign_lo = 1 if s > 0 else -1
        return self

    @classmethod
    def from_root(cls, p, index):
        """The index-th real root (ascending, 0-based) of integer poly p."""
        roots = real_roots(p)
        if not 0 <= index < len(roots):
            raise OutOfRangeError(
                f"root index {index} out of range (poly has {len(roots)} real roots)"
            )
        return roots[index]

    # -- basic structure ----------------------------------------------------

    @property
    def interval(self):
        return self._interval

    @property
    def degree(self):
        return polys.degree(self.min_poly)

    @property
    def is_rational(self):
        return len(self.min_poly) == 2

    def as_rational(self):
        if not self.is_rational:
            raise OutOfRangeError("not a rational value")
        return Fraction(-self.min_poly[0], self.min_poly[1])

    def refine(self):
        """Halve the isolating interval (no-op for rationals)."""
        if self.is_rational:
            return
        lo, hi = self._interval
        mid = (lo + hi) / 2
        v = polys.evaluate(self.min_poly, mid)
        if v == 0:
            raise InternalConsistencyError("rational root of irreducible poly")
        if (1 if v > 0 else -1) == self._sign_lo:
            self._interval = (mid, hi)
        else:
            self._interval = (lo, mid)

    def sign(self):
        """Exact sign in {-1, 0, 1}."""
        if self.is_rational:
            r = self.as_rational()
            return 0 if r == 0 else (1 if r > 0 else -1)
        while True:  # an irrational value is never zero
            lo, hi = self._interval
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            self.refine()

    def approx(self, bits=64):
        """The greatest multiple of 2**-bits not above the value (rationals
        exactly), so the result depends on the value alone, not on how far
        the interval happens to be refined (the ``to_float`` contract)."""
        if self.is_rational:
            return self.as_rational()
        scale = 1 << bits
        while True:
            lo, hi = self._interval
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
        return compare(self, as_algreal(other)) == LESS

    def __le__(self, other):
        return compare(self, as_algreal(other)) != GREATER

    def __gt__(self, other):
        return compare(self, as_algreal(other)) == GREATER

    def __ge__(self, other):
        return compare(self, as_algreal(other)) != LESS

    def __hash__(self):
        if self.is_rational:
            return hash(self.as_rational())
        return hash(self.min_poly)

    def __float__(self):
        return float(self.approx(60))

    def __repr__(self):
        if self.is_rational:
            return f"AlgReal({self.as_rational()})"
        return f"AlgReal(deg {self.degree}, ~{float(self):.12g})"


def as_algreal(v):
    if isinstance(v, AlgReal):
        return v
    return AlgReal(Fraction(v))


# -- root selection ---------------------------------------------------------

def _select_root(cand, interval_fn, refine_fn):
    """Pick the irreducible factor of `cand` isolating the value described
    by interval_fn (which must always bracket it strictly), returning an
    AlgReal.  refine_fn tightens the bracketing interval."""
    factors = polys.factor_int(cand)
    for _ in range(20000):
        lo, hi = interval_fn()
        counts = [_count_closed(f, lo, hi) for f in factors]
        if sum(counts) == 1:
            hit = factors[counts.index(1)]
            if polys.degree(hit) == 1:
                return AlgReal(Fraction(-hit[0], hit[1]))
            return AlgReal._make(hit, (lo, hi))
        refine_fn()
    raise InternalConsistencyError("root selection did not converge")


def _count_closed(f, lo, hi):
    if polys.degree(f) == 1:
        r = Fraction(-f[0], f[1])
        return 1 if lo <= r <= hi else 0
    return polys.count_roots_halfopen(f, lo, hi)


def _check_cand_degree(n):
    if n > _MAX_CAND_DEGREE:
        raise BoundExceededError(
            f"candidate polynomial of degree {n} exceeds {_MAX_CAND_DEGREE}")


# -- field operations -------------------------------------------------------

def add(a, b):
    a, b = as_algreal(a), as_algreal(b)
    if a.is_rational and b.is_rational:
        return AlgReal(a.as_rational() + b.as_rational())
    if a.is_rational:
        a, b = b, a
    if b.is_rational:
        r = b.as_rational()
        if r == 0:
            return a
        p = polys.compose_shift(a.min_poly, r)
        lo, hi = a.interval
        return AlgReal._make(p, (lo + r, hi + r))
    _check_cand_degree(a.degree * b.degree)
    cand = polys.cand_sum(a.min_poly, b.min_poly)

    def interval_fn():
        return (a.interval[0] + b.interval[0], a.interval[1] + b.interval[1])

    return _select_root(cand, interval_fn, lambda: (a.refine(), b.refine()))


def neg(a):
    a = as_algreal(a)
    if a.is_rational:
        return AlgReal(-a.as_rational())
    lo, hi = a.interval
    return AlgReal._make(polys.compose_neg(a.min_poly), (-hi, -lo))


def sub(a, b):
    return add(as_algreal(a), neg(b))


def mul(a, b):
    a, b = as_algreal(a), as_algreal(b)
    if a.is_rational and b.is_rational:
        return AlgReal(a.as_rational() * b.as_rational())
    if a.is_rational:
        a, b = b, a
    if b.is_rational:
        r = b.as_rational()
        if r == 0:
            return AlgReal(0)
        if r == 1:
            return a
        p = polys.compose_scale(a.min_poly, r)
        lo, hi = a.interval
        iv = (lo * r, hi * r) if r > 0 else (hi * r, lo * r)
        return AlgReal._make(p, iv)
    if a.min_poly == b.min_poly and compare(a, b) == EQUAL:
        _check_cand_degree(a.degree)
        cand = polys.cand_square(a.min_poly)
    else:
        _check_cand_degree(a.degree * b.degree)
        cand = polys.cand_prod(a.min_poly, b.min_poly)

    def interval_fn():
        (alo, ahi), (blo, bhi) = a.interval, b.interval
        prods = (alo * blo, alo * bhi, ahi * blo, ahi * bhi)
        return (min(prods), max(prods))

    return _select_root(cand, interval_fn, lambda: (a.refine(), b.refine()))


def _invert(a):
    if a.is_rational:
        r = a.as_rational()
        if r == 0:
            raise DivisionByZeroError("division by zero")
        return AlgReal(1 / r)
    a.sign()  # refines the interval until it excludes 0
    lo, hi = a.interval
    return AlgReal._make(polys.compose_invert(a.min_poly), (1 / hi, 1 / lo))


def div(a, b):
    a, b = as_algreal(a), as_algreal(b)
    if b.sign() == 0:
        raise DivisionByZeroError("division by zero")
    return mul(a, _invert(b))


def compare(a, b):
    """Exact trichotomy: LESS (-1), EQUAL (0) or GREATER (1)."""
    a, b = as_algreal(a), as_algreal(b)
    if a.is_rational and b.is_rational:
        ra, rb = a.as_rational(), b.as_rational()
        return EQUAL if ra == rb else (LESS if ra < rb else GREATER)
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
    """Exact square root of a >= 0."""
    a = as_algreal(a)
    s = a.sign()
    if s < 0:
        raise OutOfRangeError("square root of a negative value")
    if s == 0:
        return AlgReal(0)
    if a.is_rational:
        r = a.as_rational()
        n, d = _isqrt_exact(r.numerator), _isqrt_exact(r.denominator)
        if n is not None and d is not None:
            return AlgReal(Fraction(n, d))
    _check_cand_degree(2 * a.degree)
    cand = polys.cand_sqrt(a.min_poly)
    state = {"bits": 16}

    def interval_fn():
        lo, hi = a.interval
        lo = max(lo, Fraction(0))
        return (_sqrt_lower(lo, state["bits"]), _sqrt_upper(hi, state["bits"]))

    def refine_fn():
        a.refine()
        state["bits"] += 8

    # make sure the interval starts at a positive lower endpoint
    while a.interval[0] <= 0:
        a.refine()
    return _select_root(cand, interval_fn, refine_fn)


def _isqrt_exact(n):
    from math import isqrt
    r = isqrt(n)
    return r if r * r == n else None


def _sqrt_lower(f, bits):
    if f <= 0:
        return Fraction(0)
    from math import isqrt
    scale = 1 << (2 * bits)
    return Fraction(isqrt(f.numerator * f.denominator * scale),
                    f.denominator << bits)


def _sqrt_upper(f, bits):
    from math import isqrt
    scale = 1 << (2 * bits)
    return Fraction(isqrt(f.numerator * f.denominator * scale) + 1,
                    f.denominator << bits)


# -- polynomial roots -------------------------------------------------------

def real_roots(p):
    """All distinct real roots of an integer polynomial, ascending."""
    coeffs = polys.as_coeff_tuple(p)
    roots = []
    for f in polys.factor_int(coeffs):
        if polys.degree(f) == 0:
            continue
        if polys.degree(f) == 1:
            roots.append(AlgReal(Fraction(-f[0], f[1])))
            continue
        for lo, hi in polys.isolate_roots(f):
            roots.append(AlgReal._make(f, (lo, hi)))
    import functools
    roots.sort(key=functools.cmp_to_key(compare))
    return roots


def chebyshev_T(n, c):
    """T_n(c) = cos(n * arccos c), computed by the exact recurrence."""
    if n < 0:
        raise OutOfRangeError("Chebyshev index must be non-negative")
    c = as_algreal(c)
    if compare(c, AlgReal(-1)) == LESS or compare(c, AlgReal(1)) == GREATER:
        raise OutOfRangeError("Chebyshev argument outside [-1, 1]")
    if c.is_rational:
        r = c.as_rational()
        t0, t1 = Fraction(1), r
        if n == 0:
            return AlgReal(t0)
        for _ in range(n - 1):
            t0, t1 = t1, 2 * r * t1 - t0
        return AlgReal(t1)
    t0, t1 = AlgReal(1), c
    if n == 0:
        return t0
    for _ in range(n - 1):
        # c * c first, so T_2 takes the squaring candidate in `mul`
        t0, t1 = t1, sub(mul(2, mul(c, t1)), t0)
    return t1


# -- rational angles --------------------------------------------------------

_NIVEN_COSINES = {Fraction(0), Fraction(1), Fraction(-1),
                  Fraction(1, 2), Fraction(-1, 2)}


def is_rational_angle(c):
    """Decide exactly whether arccos(c)/pi is rational.

    Rational cosines go through Niven's theorem; otherwise c + i*sqrt(1-c^2)
    is tested for being a root of unity by checking whether the minimal
    polynomial of c divides Res_z(Phi_m(z), z^2 - 2cz + 1) for one of the
    finitely many orders m with phi(m) = 2*deg(c).
    """
    c = as_algreal(c)
    if compare(c, AlgReal(-1)) == LESS or compare(c, AlgReal(1)) == GREATER:
        raise OutOfRangeError("cosine outside [-1, 1]")
    if c.is_rational:
        return c.as_rational() in _NIVEN_COSINES
    return _rational_angle_order(c) is not None


def _rational_angle_order(c):
    """The m with c = cos(2*pi*k/m), gcd(k, m) = 1, for irrational c; None
    if there is none.  Such a c has degree phi(m)/2 (Lehmer, 1933), and m is
    unique, so only the orders with phi(m) = 2*deg(c) are tried."""
    for m in _orders_with_totient(2 * c.degree):
        rm = polys.cos_rational_angle_resultant(m)
        if polys.divides(c.min_poly, rm):
            return m
    return None


@lru_cache(maxsize=None)
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
    gcd-reduced; None if the angle is not a rational multiple of pi."""
    c = as_algreal(c)
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
