"""Integer polynomial machinery backing the algebraic-number kernel.

Polynomials are tuples of Python ints in ascending degree with a nonzero
leading coefficient; the zero polynomial is the empty tuple.  Factorisation
over Q (`factor_int`) is the one job handed to a computer algebra system;
everything else is done here with exact integer and rational arithmetic:
the special resultants (composed sums and products, by Newton power sums),
cyclotomic polynomials, pseudo-remainders (divisibility, gcds) and
everything sign-related (Sturm chains, root counting, isolation), with
signs taken in integers.
"""

from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, lcm

import sympy

from .errors import ZeroPolynomialError

#: entries kept by each polynomial-keyed cache, far above the distinct
#: polynomials of one benchmark pass (a traced `geometry` pass makes 40
#: factorisations), so a long-lived process holds a bounded amount
CACHE_SIZE = 4096


def normalize(coeffs):
    """Strip trailing zero coefficients; return an ascending tuple."""
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(int(v) for v in c)


def degree(c):
    return len(c) - 1


def _horner(c, t):
    """(q^n * c(t), q^n) for t = p/q and n = deg c, by Horner's rule in
    integers on sum c_i * p^i * q^(n-i)."""
    t = Fraction(t)
    p, q = t.numerator, t.denominator
    acc, qpow = 0, 1
    for coef in reversed(c):
        acc = acc * p + coef * qpow
        qpow *= q
    return acc, qpow // q if c else 1


def evaluate(c, t):
    """c(t) at a Fraction (or int) t."""
    acc, den = _horner(c, t)
    return Fraction(acc, den)


def sign_at(c, t):
    """The sign of c(t) in {-1, 0, 1}, without forming the value."""
    acc, _ = _horner(c, t)
    return (acc > 0) - (acc < 0)


def derivative(c):
    return tuple(i * c[i] for i in range(1, len(c)))


def content(c):
    g = 0
    for v in c:
        g = gcd(g, abs(v))
    return g


def primitive(c):
    """Divide out the content and make the leading coefficient positive."""
    c = normalize(c)
    if not c:
        return c
    g = content(c)
    if c[-1] < 0:
        g = -g
    return tuple(v // g for v in c)


def mul(a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return normalize(out)


def add(a, b):
    out = [0] * max(len(a), len(b))
    for i, v in enumerate(a):
        out[i] += v
    for i, v in enumerate(b):
        out[i] += v
    return normalize(out)


def as_coeff_tuple(p):
    """Any coefficient sequence as a polynomial; reject the zero poly."""
    coeffs = normalize(p)
    if not coeffs:
        raise ZeroPolynomialError("the zero polynomial is not a valid input")
    return coeffs


# -- factorisation -----------------------------------------------------------

@lru_cache(maxsize=CACHE_SIZE)
def factor_int(c):
    """Distinct irreducible factors over Q, each primitive with positive lead."""
    _, factors = sympy.Poly(c[::-1], sympy.Symbol("x"), domain="ZZ").factor_list()
    return tuple(sorted(primitive(f.all_coeffs()[::-1]) for f, _m in factors))


# -- special resultants by Newton power sums --------------------------------
# (Bostan, Flajolet, Salvy, Schost, "Fast computation of special
# resultants", JSC 2006.)  A polynomial of degree n is fixed up to a
# constant by the power sums s_0..s_n of its roots, and composed sums and
# products have power sums that are simple in those of their factors.

def _power_sums(c, n):
    """Power sums s_0..s_n of the roots of c, with multiplicity, by Newton's
    identities: c_d*s_k + c_(d-1)*s_(k-1) + ... = -k*c_(d-k) (0 for k > d)."""
    d = degree(c)
    s = [Fraction(d)]
    for k in range(1, n + 1):
        acc = Fraction(k * c[d - k] if k <= d else 0)
        for i in range(1, min(k - 1, d) + 1):
            acc += c[d - i] * s[k - i]
        s.append(-acc / c[-1])
    return s


def _from_power_sums(S, n):
    """The primitive integer polynomial of degree n whose roots have power
    sums S[0..n], by the inverse Newton recurrence on its monic form
    x^n + b_1*x^(n-1) + ... + b_n:  k*b_k = -(S_k + b_1*S_(k-1) + ...)."""
    b = [Fraction(1)]
    for k in range(1, n + 1):
        acc = S[k]
        for i in range(1, k):
            acc += b[i] * S[k - i]
        b.append(-acc / k)
    den = lcm(*(v.denominator for v in b))
    return primitive([v.numerator * den // v.denominator for v in reversed(b)])


@lru_cache(maxsize=CACHE_SIZE)
def cand_sum(pa, pb):
    """Integer polynomial vanishing at every a + b with pa(a) = pb(b) = 0:
    the composed sum, Res_y(pa(y), pb(x - y)) made primitive."""
    n = degree(pa) * degree(pb)
    sa, sb = _power_sums(pa, n), _power_sums(pb, n)
    S = [sum(comb(k, t) * sa[t] * sb[k - t] for t in range(k + 1))
         for k in range(n + 1)]
    return _from_power_sums(S, n)


@lru_cache(maxsize=CACHE_SIZE)
def cand_prod(pa, pb):
    """Integer polynomial vanishing at every a * b (0 not a root of pa): the
    composed product, Res_y(pa(y), y^deg(pb) * pb(x / y)) made primitive."""
    n = degree(pa) * degree(pb)
    sa, sb = _power_sums(pa, n), _power_sums(pb, n)
    return _from_power_sums([u * v for u, v in zip(sa, sb)], n)


@lru_cache(maxsize=CACHE_SIZE)
def cand_square(p):
    """Integer polynomial vanishing at every a^2 with p(a) = 0, of degree
    deg p: Res_y(p(y), x - y^2) made primitive.  The squares of the roots
    have power sums s_0, s_2, ..., s_2n."""
    n = degree(p)
    return _from_power_sums(_power_sums(p, 2 * n)[::2], n)


def cand_sqrt(c):
    """p(x^2): vanishes at +-sqrt(r) for every root r of p."""
    out = [0] * (2 * len(c) - 1)
    for i, v in enumerate(c):
        out[2 * i] = v
    return primitive(out)


def compose_neg(c):
    """Minimal-polynomial transform for x -> -x (primitive, lead > 0)."""
    return primitive(tuple(v if i % 2 == 0 else -v for i, v in enumerate(c)))


def compose_invert(c):
    """Transform for x -> 1/x (0 must not be a root)."""
    return primitive(tuple(reversed(c)))


def compose_shift(c, r):
    """Minimal-polynomial transform for the value a + r, r = s/t rational.

    Returns t^n * p(x - s/t) = sum_i c_i * t^(n-i) * (t*x - s)^i, computed
    by Horner over the integers.
    """
    s, t = r.numerator, r.denominator
    u = (-s, t)
    acc = (c[-1],)
    tpow = 1
    for coef in reversed(c[:-1]):
        tpow *= t
        acc = add(mul(acc, u), (coef * tpow,))
    return primitive(acc)


def compose_scale(c, r):
    """Transform for x -> x / r, r = s/t nonzero rational."""
    s, t = r.numerator, r.denominator
    n = degree(c)
    return primitive(tuple(c[i] * t ** i * s ** (n - i) for i in range(len(c))))


# -- Sturm machinery --------------------------------------------------------

@lru_cache(maxsize=CACHE_SIZE)
def sturm_chain(c):
    """Sturm chain of a squarefree polynomial, primitive integer rows."""
    chain = [primitive(c), primitive(derivative(c))]
    while chain[-1] and degree(chain[-1]) > 0:
        # lead^e * (a mod b), turned into a positive multiple of -(a mod b)
        rem, e = pseudo_rem(chain[-2], chain[-1])
        if not rem:
            break
        if chain[-1][-1] > 0 or e % 2 == 0:
            rem = tuple(-v for v in rem)
        # divide out the positive content: flipping a row's sign breaks the count
        g = content(rem)
        chain.append(tuple(v // g for v in rem))
    return tuple(chain)


def pseudo_rem(a, b):
    """(r, e) with lead(b)^e * a = q*b + r and deg r < deg b, in integers."""
    r, lb, db, e = list(a), b[-1], degree(b), 0
    while len(r) > db:
        f = r.pop()
        if f:
            if lb != 1:
                r = [lb * v for v in r]
                e += 1
            for i in range(db):
                r[len(r) - db + i] -= f * b[i]
    return normalize(r), e


def poly_gcd(a, b):
    """Greatest common divisor over Q, primitive with positive lead."""
    while b:
        a, b = b, primitive(pseudo_rem(a, b)[0])
    return primitive(a)


def _variations(chain, t):
    signs = [v for v in (sign_at(row, t) for row in chain) if v]
    return sum(1 for i in range(len(signs) - 1) if signs[i] != signs[i + 1])


def count_roots_halfopen(c, lo, hi):
    """Number of distinct real roots of squarefree c in (lo, hi]."""
    if lo >= hi:
        return 0
    chain = sturm_chain(c)
    return _variations(chain, lo) - _variations(chain, hi)


def root_bound(c):
    """Cauchy bound: every real root lies strictly inside (-B, B)."""
    lead = abs(c[-1])
    m = max(abs(v) for v in c[:-1]) if len(c) > 1 else 0
    return Fraction(m, lead) + 1


def isolate_roots(c):
    """Isolating intervals for all real roots of squarefree c with no
    rational root (an irreducible polynomial of degree >= 2), by bisection.

    Returns ascending disjoint (lo, hi) pairs, one root per interval; no
    endpoint is a root, since every endpoint is rational.
    """
    c = primitive(c)
    out = []
    B = root_bound(c)
    stack = [(-B, B, count_roots_halfopen(c, -B, B))]
    while stack:
        lo, hi, n = stack.pop()
        if n == 1:
            out.append((lo, hi))
        elif n > 1:
            mid = (lo + hi) / 2
            k = count_roots_halfopen(c, lo, mid)
            stack.append((lo, mid, k))
            stack.append((mid, hi, n - k))
    out.sort()
    return out


@lru_cache(maxsize=None)
def cyclotomic(m):
    """Phi_m: x^m - 1 divided exactly by Phi_d for every d | m, d < m.  Each
    divisor is monic, so the long division stays in the integers."""
    q = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            b = cyclotomic(d)
            db = degree(b)
            for k in range(len(q) - 1 - db, -1, -1):
                f = q[k + db]
                for i in range(db):
                    q[k + i] -= f * b[i]
            q = q[db:]
    return tuple(q)


@lru_cache(maxsize=None)
def cos_rational_angle_resultant(m):
    """R_m(x) = Res_z(Phi_m(z), z^2 - 2xz + 1), primitive.

    R_m(c) = 0 exactly when c is the cosine of a primitive m-th root of
    unity's argument, i.e. c = cos(2*pi*k/m) with gcd(k, m) = 1.  The roots
    of R_m are (z + 1/z)/2 over the roots z of Phi_m, which are closed
    under z -> 1/z, so s_(-j) = s_j and R_m has the power sums
    P_k = 2^-k * sum_t C(k, t) * s_|2t - k|(Phi_m).
    """
    phi = cyclotomic(m)
    n = degree(phi)
    s = _power_sums(phi, n)
    P = [sum(comb(k, t) * s[abs(2 * t - k)] for t in range(k + 1)) / 2 ** k
         for k in range(n + 1)]
    return _from_power_sums(P, n)


def divides(small, big):
    """True if `small` divides `big` over Q."""
    return not pseudo_rem(big, small)[0]
