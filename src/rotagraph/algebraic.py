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
modulo m (Cohen, GTM 138, ch. 4), with the arithmetic of polys, and so do
two quadratic generators of one field.  A constant meets every generator,
so a rational scales or shifts the other operand's numerators, with no
search for a common field and, below deg m, no reduction; two rationals
take integer arithmetic over one denominator.  A generator psi may also
record older generators t of its subfields as t = h(psi) (embeddings,
each checked exactly before it is kept): a square root records the
generator of its radicand's field (a tower), and an operation across two
unrelated fields records both in the primitive element psi = t1 + t2 of
their compositum when that has full degree (Loos, "Computing in algebraic
extensions", 1982); two quadratic fields join in closed form, with no
candidate polynomial and no linear solve.  Each of t1 and t2 also
remembers the last compositum it was joined into, so the same pair meets
over one psi.  Values whose
generators are linked by these records meet over the larger generator.
A rational or tagged value builds its minimal polynomial and isolating
interval only when asked for them (printing, hashing, a square root, an
operation across fields): q*x - p and [p/q, p/q] for p/q, and for g(theta)
the characteristic polynomial of g, with no factorisation; that is the
only way it gets one.  A sum of products (dot) over rationals and one
generator sums the integer products over one denominator and reduces once
modulo m; so does one over several generators linked by records, once
each operand over another generator is mapped into the one that reaches
all the others.  A linear combination of vectors (combo), the one the
geometry builds its points and matrix rows with, meets all its operands
once for the whole vector, over their compositum when they lie over two
unrelated generators, and takes one such sum per coordinate.
Operations across fields that no record links and no compositum joins take
the candidate polynomial of the result, and give an untagged value; two
equal values over unrelated generators (a value and its re-parse) meet
over the first one's generator instead.  A square root of a square of the
field stays in it, tagged over the same generator.

Candidates (square roots of irrationals, composita, cross-field results)
and the polynomials given to real_roots are factorised only when no
certificate in polys shows them irreducible (Capelli's theorem for
x^2 - a, full degree of a compositum, Musser's test); in the geometry all
of them fire.  The quadratic facts met most often are each settled by one
exact test, with no search: the square root of a rational p/q that is no
square is the root of q*x^2 - p on an isqrt bracket that two signs check;
two quadratic fields have a compositum of full degree unless their
discriminants multiply to a square (no prime search); and an embedding
t = h(psi) stands once t's minimal polynomial has one root in the hull of
h(psi)'s enclosure and t's interval (one Sturm count, no refinement of psi
down to t's interval).

Values are immutable.  The isolating interval may be tightened in place,
a rational or tagged value's minimal polynomial filled in on first use and a
generator's last compositum remembered; each is semantically invisible and
written in one attribute, so values are safe to share between threads (a
lost write costs a rebuild).
"""

from fractions import Fraction
from functools import cmp_to_key, lru_cache, reduce
from itertools import islice
from math import ceil, gcd, isqrt, lcm, prod

from . import polys
from .errors import (
    BoundExceededError,
    DivisionByZeroError,
    InternalConsistencyError,
    OutOfRangeError,
)

LESS, EQUAL, GREATER = -1, 0, 1

# Largest candidate polynomial root selection will build.  The certified
# degree-64 sum of six square roots takes about a second and a half; one
# that no certificate covers goes to factorisation, which at degree 64 can
# take minutes.  Each nested square root doubles the degree.
_MAX_CAND_DEGREE = 256

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
    # generator psi only: _embeds, pairs (t, h) of older generators with
    # t = h(psi), each checked exactly when recorded (see _record), and
    # _joined, (partner, compositum) for the last compositum it and partner
    # were joined into (see _compositum), else (None, None)
    __slots__ = ("_root", "_tag", "_embeds", "_joined")

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
        self._joined = (None, None)
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
        """The index-th real root (ascending, 0-based) of integer poly p."""
        roots = real_roots(p)
        if not 0 <= index < len(roots):
            raise OutOfRangeError(
                f"root index {index} out of range (poly has {len(roots)} real roots)"
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
        """Exact sign in {-1, 0, 1}."""
        if self.is_rational:
            p = _ints(self._tag[1])[0]
            return (p > 0) - (p < 0)
        while True:  # an irrational value is never zero
            r = self._root
            if r is None:   # g's range over theta's interval, over a scale > 0
                theta, g = self._tag
                lo, hi, _ = _range(g, theta._root[1])
            else:
                lo, hi = r[1]
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
    """(min_poly, isolating interval, sign at its lower end) of g(theta),
    from its minimal polynomial read off traces, with no factorisation; of
    a rational p/q (theta None), q*x - p and the point interval."""
    if theta is None:
        p, q = _ints(g)
        r = Fraction(p, q)
        return (-p, q), (r, r), 0
    f = polys.minimal_polynomial(g, theta.min_poly)
    root = _select_root((f,), lambda: _enclose(g, theta.interval), theta.refine)
    return root._root


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


def _common(ea, eb):
    """(theta, ga, gb) with a = ga(theta) and b = gb(theta), for a and b
    as _gen gives them: over the generator of either when the other is a
    constant (theta None for two) or its field is known to contain the
    other's (_meet); None otherwise."""
    (ta, ga), (tb, gb) = ea, eb
    if ta is tb or tb is None:
        return ta, ga, gb
    if ta is None:
        return tb, ga, gb
    return _meet((ea, eb))


def _meet(es):
    """(theta, g_1, ..., g_k) with v_i = g_i(theta) for es[i] = _gen(v_i), over two
    or more generators: theta the first of the largest degree that reaches
    each of the others as t = h(theta) (_reach), each g over such a t mapped
    into it once (polys.compose_mod), and constants kept.  None when no
    generator reaches all the others."""
    thetas = list({id(t): t for t, _ in es if t is not None}.values())
    top = max(t.degree for t in thetas)
    for theta in thetas:
        if theta.degree != top:     # a field of lower degree contains no larger one
            continue
        hs = {}
        for t in thetas:
            if t is not theta:
                h = _reach(theta, t)
                if h is None:
                    break
                hs[id(t)] = h
        else:
            m = theta.min_poly
            return (theta, *(g if t is None or t is theta else polys.compose_mod(g, hs[id(t)], m)
                             for t, g in es))
    return None


def _reach(psi, t):
    """t as a polynomial in psi, both generators, when psi's field is known
    to contain t: through psi's recorded embeddings, depth first, down to a
    generator that is t or of one field with it (_embed); or, for t a
    compositum t1 + t2, as the sum of t1 and t2 reached that way.  Else
    None."""
    stack, seen = [(psi, ())], {id(psi)}
    while stack:
        s, path = stack.pop()      # path: (k, u) from psi down, s = k(u)
        h = _X if s is t else _embed(t, s)
        if h is not None:
            for k, u in reversed(path):     # x(k) is k, stored reduced
                h = k if h is _X else polys.compose_mod(h, k, u.min_poly)
            return h
        for u, k in s._embeds:
            if id(u) not in seen:
                seen.add(id(u))
                stack.append((u, path + ((k, s),)))
    parts = [_reach(psi, u) for u, _ in _summands(t)]
    if parts and None not in parts:
        return polys.qadd(*parts)
    return None


def _summands(t):
    """The generators t1, t2 of a compositum t = t1 + t2: its two recorded
    embeddings, whose polynomials then add up to x; else ()."""
    e = t._embeds
    return e if len(e) == 2 and polys.qadd(e[0][1], e[1][1]) == _X else ()


def _embed(t, theta):
    """t as a polynomial in theta, both generators, when they generate one
    field we can tell without records: equal values, or quadratics whose
    discriminants multiply to a square.  Else None."""
    p, m = t.min_poly, theta.min_poly
    if len(p) == len(m) == 3:
        dp, dm = polys.discriminant(p), polys.discriminant(m)
        k = polys.int_sqrt(dp * dm)
        if k is None:
            return None
        # 2*c2*x + c1 = sigma*sqrt(D) for a root x of c0 + c1*x + c2*x^2,
        # sigma the sign of the derivative there, which is -sign_lo; and
        # sqrt(dp) = (f / dm) * sqrt(dm)
        f = t._root[2] * theta._root[2] * k
        return polys.qpoly((f * m[1] - p[1] * dm, 2 * f * m[2]), 2 * p[2] * dm)
    if p == m and _compare_isolated(t, theta) == EQUAL:
        return _X
    return None


def _record(psi, embeds):
    """Give the new generator psi its embeddings (t, h) after checking each
    exactly: m_t(h(x)) reduces to 0 modulo m_psi, so h(psi) is a root of
    m_t, and m_t has exactly one root (a Sturm count) in the hull of an
    enclosure of h(psi) and t's isolating interval, which holds both, so
    h(psi) = t.  While the hull holds more roots, psi's interval is halved
    k times, k the bit length of the enclosure's width over that of t's
    interval, rounded up: about log2 of that ratio enclosures in all, not
    one per halving.  An enclosure that leaves t's interval shows h(psi) to
    be another root."""
    m = psi.min_poly
    for t, h in embeds:
        mt = t.min_poly
        if polys.compose_mod((mt, 1), h, m)[0]:
            raise InternalConsistencyError("embedding is not a root of the minimal polynomial")
        lo, hi = t.interval
        for _ in range(20000):
            elo, ehi = _enclose(h, psi.interval)
            if ehi < lo or hi < elo:
                raise InternalConsistencyError("embedding is another root")
            if polys.count_roots_halfopen(mt, min(lo, elo), max(hi, ehi)) == 1:
                break
            for _ in range(ceil((ehi - elo) / (hi - lo)).bit_length()):
                psi.refine()
        else:
            raise InternalConsistencyError("embedding check did not converge")
    psi._embeds = tuple(embeds)


def _solve(columns):
    """The polynomial sum_k c_k * y^k equal to x, from the coordinates
    columns[k] = (n_k, d_k), integers n_k over one denominator d_k, of y^k in
    a basis of the field whose entry 1 is x: the c_k with
    sum_k c_k * n_k / d_k = e_1, by fraction-free Gauss-Jordan elimination
    (Bareiss) on the integer columns n_k.  Each entry stays an integer
    minor, so every division is exact, and the rows end as
    (det * e_k | det * c_k / d_k)."""
    n = len(columns)
    rows = [[col[r] for col, _ in columns] + [int(r == 1)] for r in range(n)]
    prev = 1
    for k in range(n):
        p = next((r for r in range(k, n) if rows[r][k]), None)
        if p is None:
            raise InternalConsistencyError("powers of a generator are dependent")
        rows[k], rows[p] = rows[p], rows[k]
        piv, pk = rows[k], rows[k][k]
        for r in range(n):
            if r != k:
                f = rows[r][k]
                rows[r] = [(pk * u - f * v) // prev for u, v in zip(rows[r], piv)]
        prev = pk
    return polys.qpoly([row[n] * d for row, (_, d) in zip(rows, columns)], prev)


def _pad(c, n):
    return c + (0,) * (n - len(c))


def _tower(root, a):
    """Record in root = sqrt(a) the generator theta of a = g(theta) when a
    generates theta's whole field: then theta = H(a) = H(root^2), H from
    one linear solve in theta's power basis (at once for linear g)."""
    theta, g = _gen(a)
    m = theta.min_poly
    n = len(m) - 1
    if a.degree != n:
        return
    c, d = g
    if len(c) == 2:     # a = (c0 + c1 theta) / d
        H = polys.qpoly((-c[0], d), c[1])
    else:
        powers, y = [], ((1,), 1)
        for _ in range(n):
            powers.append((_pad(y[0], n), y[1]))
            y = polys.mulmod(y, g, m)
        H = _solve(powers)
    square = ((0, 0, 1), 1)
    _record(root, ((theta, polys.compose_mod(H, square, root.min_poly)),))


def _join(*vs):
    """(psi, g_1, ..., g_k) with vs[i] = g_i(psi), for values over exactly
    two generators t1 and t2 (rationals as constants): psi = t1 + t2, the
    generator of their compositum (_compositum), and each g over t1 or t2
    mapped into it once.  None for another number of generators, or when
    psi falls short of full degree."""
    es = [_gen(v) for v in vs]
    thetas = list({id(t): t for t, _ in es if t is not None}.values())
    psi = _compositum(*thetas) if len(thetas) == 2 else None
    if psi is None:
        return None
    hs = {id(t): h for t, h in psi._embeds}
    m = psi.min_poly
    return (psi, *(g if t is None else polys.compose_mod(g, hs[id(t)], m) for t, g in es))


def _compositum(t1, t2):
    """psi = t1 + t2 for generators t1 and t2, with t1 = h1(psi) and
    t2 = psi - t1 recorded, when psi has the full degree n1*n2 within the
    candidate budget, so it generates Q(t1, t2).  None when psi falls short
    of full degree, and at once unless full degree is likely or certified:
    coprime degrees force it, two quadratics have it unless their
    discriminants multiply to a square, a quadratic side misses it only if
    its square root already lies in the other field, and polys.full_degree
    reads it mod small primes; two fields of one higher degree are often
    one field reached twice (a value and its re-parsed print), where
    factorising psi's candidate would be wasted.  Two quadratics take psi's
    minimal polynomial and h1 in closed form (_quadratic_sum); other degrees
    take psi's candidate, certified irreducible where it can be, and h1
    from one linear solve over the basis t1^i * t2^j.  Each of t1 and t2
    remembers the last psi it was joined into, so joining the same pair
    again, in either order, builds nothing."""
    for s, t in ((t1, t2), (t2, t1)):
        partner, psi = s._joined
        if partner is t:
            return psi
    m1, m2 = t1.min_poly, t2.min_poly
    n1, n2 = len(m1) - 1, len(m2) - 1
    quadratics = n1 == n2 == 2
    if n1 * n2 > _MAX_CAND_DEGREE or (
            (quadratics or min(n1, n2) > 2) and not polys.full_degree(m1, m2)):
        return None
    if quadratics:
        m, h1 = _quadratic_sum(m1, m2)
        psi = _select_root((m,), lambda: _sum_interval(t1.interval, t2.interval),
                           lambda: (t1.refine(), t2.refine()))
    else:
        psi = _composed_root(polys.cand_sum, t1, t2, _sum_interval)
        if psi.is_rational or psi.degree != n1 * n2:
            return None
        # psi^k as a polynomial in t2 of degree < n2 with coefficients in
        # Q(t1), flattened to coordinates over t1^i * t2^j (t1 at index 1)
        # over one denominator; times psi is t1 * v plus t2 * v, whose t2^n2
        # term m2 reduces
        zero = ((), 1)
        powers, v = [], [((1,), 1)] + [zero] * (n2 - 1)
        for _ in range(n1 * n2):
            den = lcm(*(d for _, d in v))
            powers.append(([c * (den // d) for num, d in v for c in _pad(num, n1)], den))
            top = polys.qpoly([-u for u in v[-1][0]], v[-1][1] * m2[-1])
            v = [polys.qadd(polys.mulmod(cur, _X, m1), polys.qadd(low, polys.qscale(top, c)))
                 for cur, low, c in zip(v, [zero] + v[:-1], m2)]
        h1 = _solve(powers)
    _record(psi, ((t1, h1), (t2, polys.qsub(_X, h1))))
    t1._joined = (t2, psi)
    t2._joined = (t1, psi)
    return psi


def _quadratic_sum(m1, m2):
    """(m, h1): the minimal polynomial m of psi = t1 + t2 and t1 = h1(psi),
    for roots t_i of quadratics m_i = c_i + b_i*x + a_i*x^2 of
    discriminants D_i with D1*D2 no square, in closed form.  With
    L = 2*a1*a2 and u = -(b1*a2 + b2*a1), w = L*psi - u is r1 + r2 for
    r1 = a2*(2*a1*t1 + b1) and r2 = a1*(2*a2*t2 + b2), whose squares are
    P = a2^2*D1 and Q = a1^2*D2; so (w^2 - P - Q)^2 = 4*P*Q, and
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

def _one_field(a, b):
    """(theta, ga, gb) with a = ga(theta) and b = gb(theta) from _common or
    _join, or over a's generator when b is the same value over an unrelated
    generator (a value and its re-parse); None otherwise."""
    ea, eb = _gen(a), _gen(b)
    common = _common(ea, eb) or _join(a, b)
    if common is None and a.min_poly == b.min_poly and _compare_isolated(a, b) == EQUAL:
        common = (*ea, ea[1])
    return common


def _sum_interval(i, j):
    return (i[0] + j[0], i[1] + j[1])


def _prod_interval(i, j):
    prods = (i[0] * j[0], i[0] * j[1], i[1] * j[0], i[1] * j[1])
    return (min(prods), max(prods))


def _composed_root(cand_fn, a, b, interval_fn):
    """a + b or a * b, for cand_fn polys.cand_sum or polys.cand_prod and
    interval_fn the matching interval operation: the root of the factor of
    the composed candidate that the operands' intervals bracket."""
    _check_cand_degree(a.degree * b.degree)
    ma, mb = a.min_poly, b.min_poly
    return _select_root(polys.composed_factors(cand_fn(ma, mb), ma, mb),
                        lambda: interval_fn(a.interval, b.interval),
                        lambda: (a.refine(), b.refine()))


# Any two operands but irrationals of unrelated fields meet over one
# generator, a rational as a constant element; two rationals p/q and r/s
# (theta None) take integer arithmetic over one denominator.

def add(a, b):
    common = _one_field(a, b)
    if common is None:
        return _composed_root(polys.cand_sum, a, b, _sum_interval)
    theta, ga, gb = common
    if theta is None:
        (p, q), (r, s) = _ints(ga), _ints(gb)
        return _quotient(p * s + r * q, q * s)
    return AlgReal._over(theta, polys.qadd(ga, gb))


def neg(a):
    theta, (n, d) = _gen(a)
    return AlgReal._over(theta, (tuple(-c for c in n), d))


def sub(a, b):
    common = _one_field(a, b)
    if common is None:
        return _composed_root(polys.cand_sum, a, neg(b), _sum_interval)
    theta, ga, gb = common
    if theta is None:
        (p, q), (r, s) = _ints(ga), _ints(gb)
        return _quotient(p * s - r * q, q * s)
    return AlgReal._over(theta, polys.qsub(ga, gb))


def mul(a, b):
    common = _one_field(a, b)
    if common is None:
        return _composed_root(polys.cand_prod, a, b, _prod_interval)
    theta, ga, gb = common
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
    common = _common(_gen(a), _gen(b))
    if common is None:
        return _compare_isolated(a, b)
    theta, ga, gb = common
    if theta is None:
        (p, q), (r, s) = _ints(ga), _ints(gb)
        d = p * s - r * q
        return (d > 0) - (d < 0)
    return AlgReal._over(theta, polys.qsub(ga, gb)).sign()


def dot(xs, ys):
    """sum_i xs[i] * ys[i], the value the add/mul chain gives: when every
    operand is rational, the integer products summed over one denominator;
    when every irrational one lies over one generator theta, the same
    modulo theta's minimal polynomial, reduced once (_sum); when they lie
    over several generators of which one reaches all the others through
    recorded embeddings, the same over that one, each operand over another
    generator mapped into it once (_dot_linked); else the chain."""
    theta, gs = None, []
    for v in (*xs, *ys):
        t, g = _gen(v)
        if t is not None and t is not theta:
            if theta is not None:
                return _dot_linked(xs, ys)
            theta = t
        gs.append(g)
    n = len(xs)
    return _sum(theta, gs[:n], gs[n:])


def _dot_linked(xs, ys):
    """dot over several generators, met as _meet meets them (as for two
    operands), or else by the add/mul chain.  The result lies over the
    generator the chain ends on, unless terms over the larger field cancel
    to a value of a subfield, which the chain gives over that subfield's
    generator."""
    common = _meet([_gen(v) for pair in zip(xs, ys) for v in pair])     # the chain's order
    if common is None:
        return reduce(add, map(mul, xs, ys))
    theta, *gs = common
    return _sum(theta, gs[::2], gs[1::2])


def combo(cs, vs):
    """The linear combination sum_i cs[i] * vs[i] of vectors vs[i], each
    coordinate the value dot gives it.  Operands over rationals and one
    generator are each read once, and each coordinate is one sum (_sum).
    Operands over several generators meet once for the whole vector, as
    _meet meets them or, over two generators no record links, over their
    compositum (_join), each mapped into the meeting generator once; only
    operands that neither meets take one dot per coordinate."""
    k = len(cs)
    vals = (*cs, *(x for v in vs for x in v))
    es = [_gen(v) for v in vals]
    thetas = {id(t): t for t, _ in es if t is not None}
    if len(thetas) > 1:
        common = _meet(es) or _join(*vals)
        if common is None:
            return tuple(dot(cs, col) for col in zip(*vs))
        theta, *gs = common
    else:
        theta, gs = next(iter(thetas.values()), None), [g for _, g in es]
    n = len(vs[0])
    return tuple(_sum(theta, gs[:k], gs[k + j::n]) for j in range(n))


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
    a generator of its whole field, a square root inside its field, or the
    root of the factor of m_a(x^2) that the bracket of its interval holds
    (Sturm counts), and records a's generator in that root (_tower)."""
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
    if not polys.nonsquare_root(a.min_poly):
        root = _sqrt_in_field(a)
        if root is not None:
            return root
    _check_cand_degree(2 * a.degree)
    root = _select_root(polys.sqrt_factors(a.min_poly),
                        lambda: _sqrt_interval(a.interval), a.refine)
    _tower(root, a)
    return root


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


def _sqrt_in_field(a):
    """sqrt(a) over a's generator theta when a = g(theta) is a square in
    Q(theta): the first p-adic candidate h (polys.sqrt_candidates) with
    h^2 = g modulo theta's minimal polynomial, signed to be positive; None
    when no candidate passes."""
    theta, g = _gen(a)
    m = theta.min_poly
    for h in polys.sqrt_candidates(m, g):
        if polys.mulmod(h, h, m) == g:
            root = AlgReal._over(theta, h)
            return root if root.sign() > 0 else neg(root)
    return None


# -- polynomial roots -------------------------------------------------------

def real_roots(p):
    """All distinct real roots of an integer polynomial, ascending."""
    coeffs = polys.as_coeff_tuple(p)
    roots = []
    for f in polys.irreducible_factors(coeffs):
        for lo, hi in polys.isolate_roots(f):
            roots.append(AlgReal._make(f, (lo, hi)))
    roots.sort(key=cmp_to_key(compare))
    return roots


def chebyshev_values(c):
    """T_0(c), T_1(c), ..., T_MAX_STEPS(c) with T_k(c) = cos(k * arccos c),
    stepped by the exact recurrence T_{k+1} = 2c T_k - T_{k-1}, one dot
    per step; asking for the next one raises BoundExceededError."""
    c = as_algreal(c)
    if compare(c, AlgReal(-1)) == LESS or compare(c, AlgReal(1)) == GREATER:
        raise OutOfRangeError("Chebyshev argument outside [-1, 1]")
    two_c, prev, cur = mul(2, c), AlgReal(1), c
    for _ in range(MAX_STEPS + 1):
        yield prev
        prev, cur = cur, dot((two_c, -1), (cur, prev))
    raise BoundExceededError(f"Chebyshev indices above {MAX_STEPS} exceed the step budget")


def chebyshev_T(n, c):
    """T_n(c) = cos(n * arccos c)."""
    if n < 0:
        raise OutOfRangeError("Chebyshev index must be non-negative")
    return next(islice(chebyshev_values(c), n, None))


# -- rational angles --------------------------------------------------------

def is_rational_angle(c):
    """Decide exactly whether arccos(c)/pi is rational."""
    return rational_angle_witness(c) is not None


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
    gcd-reduced; None if the angle is not a rational multiple of pi.

    Rational cosines go through Niven's theorem; otherwise c + i*sqrt(1-c^2)
    is tested for being a root of unity by checking whether the minimal
    polynomial of c divides Res_z(Phi_m(z), z^2 - 2cz + 1) for one of the
    finitely many orders m with phi(m) = 2*deg(c).
    """
    c = as_algreal(c)
    if compare(c, AlgReal(-1)) == LESS or compare(c, AlgReal(1)) == GREATER:
        raise OutOfRangeError("cosine outside [-1, 1]")
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
