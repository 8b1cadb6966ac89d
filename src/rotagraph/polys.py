"""Polynomial arithmetic on coefficient tuples, backing the algebraic-number
kernel: the one place where polynomials are added, multiplied and divided.

Polynomials are tuples of coefficients in ascending degree with a nonzero
leading coefficient; the zero polynomial is the empty tuple.  Coefficients
are Python ints, checked where a polynomial comes in (`real_roots`).
A polynomial over Q, and so an element of Q[x]/(m), is one pair (n, d):
integer numerators n over one positive int d with gcd(d, content(n)) = 1
(`qpoly`), the usual number-field element form (Cohen, GTM 138, 4.2), so
equal elements are equal pairs.  `qadd`, `qsub`, `qscale`, `mulmod`,
`dotmod` (a sum of products, reduced once), `invmod`, `compose_mod`,
`shift`, `gcd_mod`, `norm`, `minimal_polynomial` and `sqrt_candidates`
take that form and work in integers, with one gcd where a result leaves;
`primitive` turns ints or Fractions into the integer form in which
polynomials leave.
Factorisation over Q (`factor_int`) is the one job handed to a computer
algebra system, sympy, imported on first use; everything else is done here
with exact integer and rational arithmetic: one special resultant, the
norm, read off traces by Newton power sums (`norm`), which gives composed
sums (`cand_sum`, the norm of a shifted polynomial, `shift`) and minimal
polynomials, everything sign-related (Sturm chains, root counting,
isolation), with signs taken in integers, and arithmetic mod a prime.

Modulo a quadratic m = c0 + c1*x + c2*x^2, the field arithmetic is closed
form (Cohen, GTM 138, 4.2 and ch. 5): `mulmod` and `dotmod` collect the
three coefficients of a product or a sum of products over one
denominator and fold x^2 once (`_fold`), and `invmod` of n0 + n1*x is the
conjugate over the norm.  `compose_mod` maps a linear g, an element of a
quadratic field, into a larger field as n0 + n1*h.  Higher degrees keep
the general routes, pseudo-division (`_qmod`), the extended Euclid
(`_invmod_euclid`) and Horner's rule (`_compose_horner`), which the tests
also run on quadratics as the reference for the closed forms.

An integer polynomial has one remainder sequence, its Sturm chain
(`sturm_chain`, cached), which ends in gcd(c, c'): the same rows count
its roots and give its square-free part (`squarefree_part`), a
characteristic polynomial's minimal polynomial (`minimal_polynomial`) and
a composed sum's square-freeness (`composed_factors`).  A quadratic's
roots are counted in closed form, with no chain.

Arithmetic mod a prime serves certificates that a candidate polynomial is
irreducible, read from how it factors mod small primes (`nonsquare_root`,
`composed_factors`, `irreducible_factors`): where one fires the candidate
is its own single factor, and `factor_int` runs only where no cheap exact
argument decides.

Three functions keep their answers, each for CACHE_SIZE polynomials or
pairs: `factor_int`, `sturm_chain` and `full_degree`, whose repeats the
test suite measured at seconds when recomputed.  `full_degree` repeats
where one join is met again, as when each real root of one norm meets the
field of the coefficients in `algebraic.real_roots`, and each call reads
up to 8 * GOOD_PRIMES good primes.  `nonsquare_root` keeps none (see there).
"""

from fractions import Fraction
from functools import lru_cache, reduce
from itertools import islice
from math import comb, gcd, isqrt, lcm

#: entries kept by each polynomial-keyed cache (`factor_int`, `sturm_chain`,
#: `full_degree`), far above the distinct polynomials of one benchmark pass
#: (a traced `geometry` pass certified 40 candidates that it used to
#: factorise), so a long-lived process holds a bounded amount
CACHE_SIZE = 4096


def normalize(coeffs):
    """Strip trailing zero coefficients; return an ascending tuple."""
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def degree(c):
    return len(c) - 1


def sign_at(c, t):
    """The sign of c(t) in {-1, 0, 1} at an int or Fraction t = p/q, by
    Horner's rule in integers on sum c_i * p^i * q^(n-i)."""
    p, q = t.as_integer_ratio()
    acc, qpow = 0, 1
    for coef in reversed(c):
        acc = acc * p + coef * qpow
        qpow *= q
    return (acc > 0) - (acc < 0)


def derivative(c):
    return tuple(i * c[i] for i in range(1, len(c)))


def primitive(c):
    """The integer polynomial with content 1 and positive lead that is a
    rational multiple of c (ints or Fractions): the integer form in which
    polynomials leave this module."""
    c = normalize(c)
    if not c:
        return c
    if any(type(v) is not int for v in c):
        den = lcm(*(v.denominator for v in c))
        c = [v.numerator * (den // v.denominator) for v in c]
    g = gcd(*c)
    if c[-1] < 0:
        g = -g
    return tuple(v // g for v in c)


def add(a, b):
    if len(a) < len(b):
        a, b = b, a
    return normalize([u + v for u, v in zip(a, b)] + list(a[len(b):]))


def sub(a, b):
    return add(a, [-v for v in b])


def mul(a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return normalize(out)


# -- polynomials over Q, and arithmetic in Q[x]/(m) ----------------------------
# Elements are pairs (n, d) as above; m is an integer polynomial.

def qpoly(n, d=1):
    """The pair for the polynomial n / d, n ints and d a nonzero int."""
    n = normalize(n)
    g = gcd(d, *n)
    if d < 0:
        g = -g
    if g == 1:
        return n, d
    return tuple(v // g for v in n), d // g


def qadd(a, b):
    (na, da), (nb, db) = a, b
    if da == db:
        return qpoly(add(na, nb), da)
    return qpoly(add([v * db for v in na], [v * da for v in nb]), da * db)


def qsub(a, b):
    return qadd(a, (tuple(-v for v in b[0]), b[1]))


def qscale(a, p, q=1):
    """p/q * a for ints p and q."""
    return qpoly([p * v for v in a[0]], q * a[1])


def _qmod(a, m):
    """a modulo m, in integers: lead(m)^e * n = q*m + r gives
    r / (d * lead(m)^e); a of degree below m's is only made canonical."""
    if len(a[0]) < len(m):
        return qpoly(*a)
    r, e = pseudo_rem(a[0], m)
    return qpoly(r, a[1] * m[-1] ** e)


def _fold(s0, s1, s2, den, m):
    """(s0 + s1*x + s2*x^2) / den modulo the quadratic m = c0 + c1*x +
    c2*x^2, x^2 folded once: c2*x^2 = -(c0 + c1*x) gives
    (c2*s0 - c0*s2, c2*s1 - c1*s2) / (den*c2)."""
    if not s2:
        return qpoly((s0, s1), den)
    c0, c1, c2 = m
    return qpoly((c2 * s0 - c0 * s2, c2 * s1 - c1 * s2), den * c2)


def mulmod(a, b, m):
    """a * b modulo m: the integer product of the numerators, reduced once;
    modulo a quadratic m, two linear factors give the three coefficients
    of the product, and x^2 is folded in closed form (_fold)."""
    (na, da), (nb, db) = a, b
    if len(m) == 3 and len(na) == len(nb) == 2:
        (a0, a1), (b0, b1) = na, nb
        return _fold(a0 * b0, a0 * b1 + a1 * b0, a1 * b1, da * db, m)
    return _qmod((mul(na, nb), da * db), m)


def dotmod(xs, ys, m):
    """sum_i xs[i] * ys[i] modulo m, for elements reduced modulo m: the
    integer products summed over one common denominator, then reduced
    once; modulo a quadratic m, the three coefficients s0, s1, s2 of the
    sum are collected so, and x^2 is folded once (_fold)."""
    if len(m) == 3:
        s0 = s1 = s2 = 0
        den = 1
        for (nx, dx), (ny, dy) in zip(xs, ys):
            if not (nx and ny):
                continue
            q, t = dx * dy, 1
            if q != den:
                g = gcd(q, den)
                s, t = q // g, den // g
                if s != 1:
                    s0, s1, s2, den = s0 * s, s1 * s, s2 * s, den * s
            x0, x1 = nx if len(nx) == 2 else (nx[0], 0)
            y0, y1 = ny if len(ny) == 2 else (ny[0], 0)
            x0, x1 = x0 * t, x1 * t
            s0 += x0 * y0
            s1 += x0 * y1 + x1 * y0
            s2 += x1 * y1
        return _fold(s0, s1, s2, den, m)
    num, den = [0] * (2 * degree(m) - 1), 1
    for (nx, dx), (ny, dy) in zip(xs, ys):
        q, t = dx * dy, 1
        if q != den:
            g = gcd(q, den)
            s, t = q // g, den // g
            if s != 1:
                num = [v * s for v in num]
                den *= s
        for i, u in enumerate(nx):
            if u:
                u *= t
                for j, v in enumerate(ny):
                    num[i + j] += u * v
    return _qmod((normalize(num), den), m)


def invmod(g, m):
    """The inverse of g != 0 modulo the irreducible m.  For g = (n0 + n1*x)/d
    modulo a quadratic m = c0 + c1*x + c2*x^2, the conjugate over the norm:
    d*((c2*n0 - c1*n1) - c2*n1*x) / (c2*n0^2 - c1*n0*n1 + c0*n1^2), whose
    product with n0 + n1*x is that norm modulo m; else by the extended
    Euclidean algorithm (_invmod_euclid)."""
    n, d = g
    if len(m) == 3 and len(n) == 2:
        (c0, c1, c2), (n0, n1) = m, n
        return qpoly((d * (c2 * n0 - c1 * n1), -d * c2 * n1),
                     c2 * n0 * n0 - c1 * n0 * n1 + c0 * n1 * n1)
    return _invmod_euclid(g, m)


def _invmod_euclid(g, m):
    """invmod by the extended Euclidean algorithm with pseudo-division, in
    integers: r_i = u_i * n (mod m) throughout for g = n / d, each
    (r_i, u_i) divided by its content, until r_i is a constant c, and then
    1/g = d * u_i / c (at once for a constant g)."""
    n, d = g
    r0, r1, u0, u1 = m, n, (), (1,)
    while len(r1) > 1:
        q, r, e = quo_rem(r0, r1)
        u = sub([r1[-1] ** e * v for v in u0], mul(q, u1))
        c = gcd(*r, *u)
        r0, r1 = r1, tuple(v // c for v in r)
        u0, u1 = u1, tuple(v // c for v in u)
    return qpoly([d * v for v in u1], r1[0])


def compose_mod(g, h, m):
    """g(h(x)) modulo m: for a linear g = (n0 + n1*x)/dg, an element of a
    quadratic field, (n0*dh + n1*nh) / (dg*dh) for h = nh/dh, reduced only
    if h was not; else by Horner's rule (_compose_horner)."""
    (ng, dg), (nh, dh) = g, h
    if len(ng) == 2:
        n0, n1 = ng
        return _qmod((add([n1 * v for v in nh], (n0 * dh,)), dg * dh), m)
    return _compose_horner(g, h, m)


def _compose_horner(g, h, m):
    """compose_mod by Horner's rule in integers: with acc / den the value
    so far, acc * h reduces to r / (den * dh * lead(m)^e)."""
    (ng, dg), (nh, dh) = g, h
    acc, den = (), 1
    for c in reversed(ng):
        acc, e = pseudo_rem(mul(acc, nh), m)
        den *= dh * m[-1] ** e
        acc = add(acc, (c * den,))
    return qpoly(acc, den * dg)


def gcd_mod(f, g, m):
    """The monic gcd of f and g != 0, polynomials over the field Q[x]/(m):
    lists of elements, lowest degree first, the last nonzero.  The
    subresultant remainder sequence (Collins, JACM 1967; Brown, JACM 1971):
    each pseudo-remainder lc(g)^(d+1) * f mod g, d = deg f - deg g, is
    divided by s * h^d, s and h the leads it carries, one invmod a step, so
    the elements grow linearly in size, where monic remainders' sizes
    (one inverse of a lead each) grow much faster."""
    s = h = ((1,), 1)
    f, g = sorted((f, g), key=len, reverse=True)
    while g:
        d, lc, r = len(f) - len(g), g[-1], list(f)
        for k in range(d, -1, -1):          # lc^(d+1) * f modulo g
            c = r.pop()
            r = [mulmod(v, lc, m) for v in r]
            for i, v in enumerate(g[:-1], k):
                r[i] = qsub(r[i], mulmod(c, v, m))
        while r and not r[-1][0]:
            r.pop()
        u = invmod(mulmod(s, _qpow(h, d, m), m), m)
        f, g, s = g, [mulmod(v, u, m) for v in r], lc
        if d:       # h = lc^d / h^(d-1)
            h = mulmod(_qpow(lc, d, m), invmod(_qpow(h, d - 1, m), m), m)
    u = invmod(f[-1], m)
    return [mulmod(c, u, m) for c in f]


def _qpow(a, e, m):
    """a^e modulo m, e >= 0."""
    return reduce(lambda b, _: mulmod(b, a, m), range(e), ((1,), 1))


# -- factorisation -----------------------------------------------------------

@lru_cache(maxsize=CACHE_SIZE)
def factor_int(c):
    """Distinct irreducible factors over Q, each primitive with positive lead.
    sympy is imported here, on the first factorisation a certificate below
    could not spare, so a process that needs none never loads it."""
    import sympy
    _, factors = sympy.Poly(c[::-1], sympy.Symbol("x"), domain="ZZ").factor_list()
    return tuple(sorted(primitive([int(v) for v in f.all_coeffs()[::-1]])
                        for f, _m in factors))


# -- norms, by Newton power sums ----------------------------------------------
# A polynomial of degree n is fixed up to a constant by the power sums
# s_0..s_n of its roots, and the power sums of a norm's roots are traces.
# The roots are taken scaled to algebraic integers (a root of c times lead(c)),
# so the power sums, and every step of the inverse recurrence, are integers.

def _power_sums(c, n):
    """Power sums s_0..s_n of the roots of c times lead(c), with
    multiplicity.  Those are the roots of the monic integer polynomial with
    coefficients c'_(d-i) = c_(d-i) * lead^(i-1), and Newton's identities
    for it read s_k = -(k*c'_(d-k) + c'_(d-1)*s_(k-1) + ...), the first
    term 0 for k > d."""
    d = degree(c)
    cm = [c[d - i] * c[-1] ** (i - 1) for i in range(1, d + 1)]    # c'_(d-i)
    s = [d]
    for k in range(1, n + 1):
        acc = k * cm[k - 1] if k <= d else 0
        for i in range(1, min(k - 1, d) + 1):
            acc += cm[i - 1] * s[k - i]
        s.append(-acc)
    return s


def _from_power_sums(S, n, D):
    """The primitive integer polynomial of degree n whose roots times D, all
    algebraic integers, have power sums S[0..n], by the inverse Newton
    recurrence on the monic polynomial of the scaled roots,
    x^n + b_1*x^(n-1) + ... + b_n:  k*b_k = -(S_k + b_1*S_(k-1) + ...), each
    b_k an integer; then x -> D*x."""
    b = [1]
    for k in range(1, n + 1):
        acc = S[k]
        for i in range(1, k):
            acc += b[i] * S[k - i]
        b.append(-acc // k)
    return primitive([b[n - j] * D ** j for j in range(n + 1)])


def cand_sqrt(c):
    """p(x^2): vanishes at +-sqrt(r) for every root r of p."""
    out = [0] * (2 * len(c) - 1)
    for i, v in enumerate(c):
        out[2 * i] = v
    return primitive(out)


def norm(f, m):
    """The primitive integer polynomial Norm(f), the product of f's
    conjugates, whose roots are those of f and of each conjugate, for f of
    degree k over Q[x]/(m), m of degree n (a list of elements, lowest degree
    first, the lead invertible), from the power sums S_0..S_kn of its roots
    times an int D (Trager, SYMSAC 1976; Cohen, GTM 138, 3.6).  With f made
    monic, coefficients c_i, Newton's identities give the power sums
    p_j = -(j*c_(k-j) + c_(k-1)*p_(j-1) + ...) of f's roots, one dotmod each
    (no first term for j > k), and their traces Tr(h) = sum_i h_i * s_i,
    s_i the power sums of m's roots, are Norm(f)'s.  In integers: for
    L = lead(m), D times each root is an algebraic integer for
    D = lcm(dens) * L^(n-1), the power sums of m's roots times L are
    integers w_i, and so are D^j * Tr(p_j).  The traces are those of the
    algebra Q[x]/(m), so for a reducible m the product runs over all of
    m's roots, with multiplicity: Norm(f) is Res_y(m(y), f(x, y)) up to a
    constant, which cand_sum reads."""
    if f[-1] != ((1,), 1):
        u = invmod(f[-1], m)
        f = [mulmod(c, u, m) for c in f]
    k, n, L = len(f) - 1, degree(m), m[-1]
    D, Ln = lcm(*(c[1] for c in f)) * L ** (n - 1), L ** (n - 1)
    w = [v * L ** (n - 1 - i) for i, v in enumerate(_power_sums(m, n - 1))]
    e, p, S = [qscale(c, -1) for c in reversed(f[:-1])], [], [k * n]
    for j in range(1, k * n + 1):
        p.append(h := dotmod(e, p[:-k - 1:-1] + [((j,), 1)] * (j <= k), m))
        S.append(D ** j * sum(c * wi for c, wi in zip(h[0], w)) // (h[1] * Ln))
    return _from_power_sums(S, k * n, D)


def shift(p, m):
    """p(x - y) as a polynomial in x over Q[y]/(m), for an integer p: a list
    of elements, lowest degree first, the coefficient of x^j being
    sum_(i >= j) comb(i, j) * p_i * (-y)^(i - j), reduced modulo m."""
    return [_qmod(([(-1) ** (i - j) * comb(i, j) * p[i] for i in range(j, len(p))], 1), m)
            for j in range(len(p))]


def cand_sum(pa, pb):
    """Integer polynomial vanishing at every a + b with pa(a) = pb(b) = 0:
    the composed sum, Res_y(pa(y), pb(x - y)) made primitive, the norm of
    pb(x - y) over Q[y]/(pa), each side's roots taken with multiplicity.
    The norm runs over the side of lower degree n: k*n steps of k products
    of degree-n elements, for the other side of degree k."""
    pa, pb = sorted((pa, pb), key=len)
    return norm(shift(pb, pa), pa)


def minimal_polynomial(g, m):
    """The minimal polynomial of g(t), t a root of the irreducible m of
    degree n: Norm(x - g), of degree n, is the characteristic polynomial of
    g(t), a power of its minimal polynomial, so its square-free part
    (squarefree_part) is that polynomial, with no factorisation.  For a g(t)
    that generates Q(t) the two are one, and so is the Sturm chain that
    gives the gcd and the one that root selection counts on."""
    return squarefree_part(norm([qscale(g, -1), ((1,), 1)], m))


# -- arithmetic mod a prime --------------------------------------------------
# Polynomials over F_p are ascending lists of ints in [0, p), [] for zero.
# The certificates below read from them how an integer polynomial factors
# mod p (Cohen, GTM 138, 3.4: distinct-degree factorisation).

def _primes_below(n):
    sieve = bytearray([0, 0]) + bytearray([1]) * (n - 2)
    for i in range(2, int(n ** 0.5) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytearray(len(sieve[i * i::i]))
    return tuple(i for i in range(n) if sieve[i])


#: the primes a certificate searches, in order.  The bound reaches 479, the
#: first prime at which 2, 3, 5, 7 and 11 are squares and 13 is not, which
#: certifies the degree-64 sum of the square roots of 2, ..., 13
CERT_PRIMES = _primes_below(2048)

#: the p-adic precision at which sqrt_candidates stops looking for a square
#: root inside a field
SQRT_LIFT_BITS = 4096

#: good primes (see _good_primes) that a certificate reads before it gives
#: up and falls back to factorisation; full_degree reads on, to 8 times as
#: many, while one side was irreducible at one of them
GOOD_PRIMES = 16


def _mod_p(c, p):
    out = [v % p for v in c]
    while out and not out[-1]:
        out.pop()
    return out


def _monic_p(a, p):
    inv = pow(a[-1], -1, p)
    return [v * inv % p for v in a]


def _divmod_p(a, b, p):
    """(q, r) with a = q*b + r and deg r < deg b over F_p, for monic b."""
    r, db = list(a), len(b) - 1
    q = [0] * max(len(a) - db, 0)
    for k in range(len(q) - 1, -1, -1):
        f = q[k] = r[k + db]
        if f:
            for i in range(db):
                r[k + i] = (r[k + i] - f * b[i]) % p
    del r[db:]
    while r and not r[-1]:
        r.pop()
    return q, r


def _mulmod_p(a, b, f, p):
    """a*b mod f over F_p, for monic f."""
    return _divmod_p([v % p for v in mul(a, b)], f, p)[1]


def _powmod_p(a, e, f, p):
    out = [1]
    while e:
        if e & 1:
            out = _mulmod_p(out, a, f, p)
        e >>= 1
        if e:
            a = _mulmod_p(a, a, f, p)
    return out


def _gcd_p(a, b, p):
    """Monic gcd over F_p of a and b, not both zero."""
    while b:
        b = _monic_p(b, p)
        a, b = b, _divmod_p(a, b, p)[1]
    return _monic_p(a, p)


def _ddf(c, p):
    """Distinct-degree factorisation of c mod p: pairs (d, g), g the monic
    product of c's irreducible factors of degree d, which all divide
    x^(p^d) - x.  None unless p is good for c: p does not divide c's lead
    and c is square-free mod p."""
    if c[-1] % p == 0:
        return None
    f = _monic_p(_mod_p(c, p), p)
    if len(_gcd_p(f, _mod_p(derivative(c), p), p)) > 1:
        return None
    out, h, d = [], [0, 1], 0
    while 2 * (d + 1) < len(f):
        d += 1
        h = _powmod_p(h, p, f, p)
        g = _gcd_p(f, _mod_p(add(h, (0, -1)), p), p)
        if len(g) > 1:
            out.append((d, g))
            f = _divmod_p(f, g, p)[0]
            h = _divmod_p(h, f, p)[1]
    if len(f) > 1:
        out.append((len(f) - 1, f))
    return out


def _degrees(parts):
    """The degrees of the irreducible factors, with multiplicity, in a
    distinct-degree factorisation (see _ddf)."""
    return [d for d, g in parts for _ in range((len(g) - 1) // d)]


def _good_primes(c, avoid=1):
    """(p, _ddf(c, p)) for the primes p of CERT_PRIMES, in order, that are
    good for c and do not divide `avoid` (2 * k keeps to odd primes)."""
    for p in CERT_PRIMES:
        if avoid % p:
            parts = _ddf(c, p)
            if parts is not None:
                yield p, parts


# -- irreducibility certificates ----------------------------------------------
# Each hands back a candidate as its own single irreducible factor when an
# exact argument shows it is irreducible, and otherwise falls back to
# factor_int.

def int_sqrt(n):
    """The square root of the int n when n is the square of an int, else
    None (for every negative n too)."""
    if n < 0:
        return None
    k = isqrt(n)
    return k if k * k == n else None


def rational_sqrt(r):
    """The rational square root of the Fraction r, or None when r is no
    rational square."""
    n, d = int_sqrt(r.numerator), int_sqrt(r.denominator)
    return None if n is None or d is None else Fraction(n, d)


def discriminant(m):
    """c1^2 - 4*c0*c2 of the quadratic m = (c0, c1, c2)."""
    return m[1] ** 2 - 4 * m[0] * m[2]


def nonsquare_root(m):
    """True when a root a of the irreducible m is not a square in Q(a), so
    that x^2 - a is irreducible over Q(a) and m(x^2) (cand_sqrt) is the
    minimal polynomial of sqrt(a), of degree 2n (Capelli): its norm
    (-1)^n * m(0) / lead(m) is not a rational square (N(b^2) = N(b)^2),
    or some odd prime p, good for m (see _ddf) and not dividing m(0), has a
    factor g of m mod p with x no square in F_p[x]/(g).  By Hensel's lemma
    g lifts to the p-adic integers, where its root is a unit of an
    unramified extension with residue field F_p[x]/(g) and the image of a;
    a = b^2 in Q(a) would make x a square there.  Not cached: its repeats
    on the `geometry` benchmark are quadratics that the norm test answers,
    and the test suite's took about 0.2 s in all to recompute."""
    if rational_sqrt(Fraction((-1) ** degree(m) * m[0], m[-1])) is None:
        return True
    # x^((p^d - 1)/2) is +1 or -1 modulo each factor of g
    return any(_powmod_p([0, 1], (p ** d - 1) // 2, g, p) != [1]
               for p, parts in islice(_good_primes(m, 2 * m[0]), GOOD_PRIMES)
               for d, g in parts)


def _sqrt_fq(a, f, p):
    """A square root of a != 0 in F_q = F_p[x]/(f), f monic and irreducible
    mod p, p odd, by Tonelli-Shanks; None when a is no square.  The
    non-square z it needs is the first x + k whose power z^((q-1)/2) is -1:
    for a linear f one x + k is 0 mod f, and its power is 0."""
    q = p ** (len(f) - 1)
    if _powmod_p(a, (q - 1) // 2, f, p) != [1]:
        return None
    s, t = 0, q - 1
    while t % 2 == 0:
        s, t = s + 1, t // 2
    z = next((z for z in ([k, 1] for k in range(p))
              if _powmod_p(z, (q - 1) // 2, f, p) == [p - 1]), None)
    if z is None:
        return None
    c, u, r = _powmod_p(z, t, f, p), _powmod_p(a, t, f, p), _powmod_p(a, (t + 1) // 2, f, p)
    while u != [1]:
        i, v = 0, u
        while v != [1]:
            v, i = _mulmod_p(v, v, f, p), i + 1
        b = c
        for _ in range(s - i - 1):
            b = _mulmod_p(b, b, f, p)
        s, c = i, _mulmod_p(b, b, f, p)
        u, r = _mulmod_p(u, c, f, p), _mulmod_p(r, b, f, p)
    return r


def _rational_reconstruction(c, M):
    """(r, s) with r/s = c mod M and |r|, |s| <= sqrt(M/2), or None (Wang's
    extended-Euclid bound)."""
    bound = isqrt(M // 2)
    r0, r1, s0, s1 = M, c % M, 0, 1
    while r1 > bound:
        k = r0 // r1
        r0, r1, s0, s1 = r1, r0 - k * r1, s1, s0 - k * s1
    if abs(s1) > bound or gcd(r1, s1) != 1:
        return None
    return r1, s1


def sqrt_candidates(m, g):
    """Candidates h for a square root h(t) of g(t) in Q(t), t a root of the
    irreducible m of degree n and g = num / den an element, deg g < n.  At an
    odd prime p good for m with m irreducible mod p (inert), Q(t) completes
    to the unramified field Q_p[x]/(m), where g(t) has exactly the square
    roots +-b; a square root in F_p[x]/(m) lifts by Newton's iteration
    y -> y * (3 - g * y^2) / 2 for 1/b, doubling the p-adic precision each
    step, and each step yields b's coefficients by rational reconstruction,
    up to p^k of SQRT_LIFT_BITS bits.  Each candidate must be checked by
    squaring; none come when none of the first GOOD_PRIMES good primes is
    inert for m."""
    n = degree(m)
    num, den = g
    for p, parts in islice(_good_primes(m, 2 * den), GOOD_PRIMES):
        if parts[0][0] == n:
            f, a = parts[0][1], _mod_p([v * pow(den, -1, p) for v in num], p)
            if a:
                break
    else:
        return
    b = _sqrt_fq(a, f, p)
    if b is None:
        return
    y, M = _powmod_p(b, p ** n - 2, f, p), p
    while M.bit_length() < SQRT_LIFT_BITS:
        M *= M
        inv = pow(m[-1], -1, M)
        f = [v * inv % M for v in m]
        a = [v * pow(den, -1, M) % M for v in num]
        e = _mulmod_p(a, _mulmod_p(y, y, f, M), f, M)
        half = (M + 1) // 2
        y = _mulmod_p(y, [v * half % M for v in sub((3,), e)], f, M)
        root = _mulmod_p(a, y, f, M)
        h = [_rational_reconstruction(v, M) for v in root]
        if None not in h:
            d = lcm(*(s for _, s in h))
            yield qpoly([r * (d // s) for r, s in h], d)


@lru_cache(maxsize=CACHE_SIZE)
def full_degree(m1, m2):
    """True when roots t1, t2 of the irreducible m1, m2 give
    [Q(t1, t2) : Q] = n1*n2.  Coprime degrees force it.  Else some prime p
    not dividing the leads must make both square-free mod p, one of them,
    of degree n, irreducible mod p, and the other one have a factor mod p
    of degree f prime to n.  By Hensel's lemma that factor lifts to the
    p-adic integers and embeds Q(t1) in the unramified extension of Q_p of
    degree f, whose residue field F_(p^f) keeps the first polynomial
    irreducible; a factorisation of it over Q(t1) would reduce to one over
    F_(p^f).  False when no prime shows it: at once for m1 == m2 (a field
    of degree n^2 at most), after GOOD_PRIMES good primes if neither side
    was irreducible at any of them (as for one field reached twice whose
    Galois group has no n-cycle), else after 8 * GOOD_PRIMES.  A False
    only sends the caller to factorisation.  (The package decides two
    quadratic fields by their discriminants and never asks here.)  Cached:
    a process that meets one pair again, as `real_roots` does for each
    real root of one norm, reads the primes once."""
    n1, n2 = degree(m1), degree(m2)
    if gcd(n1, n2) == 1:
        return True
    if m1 == m2:
        return False
    (small, ns), (big, nb) = sorted(((m1, n1), (m2, n2)), key=lambda e: e[1])
    inert = False
    for good, (p, parts) in enumerate(islice(_good_primes(small), 8 * GOOD_PRIMES), 1):
        ds, db = _degrees(parts), None
        # the small side must be irreducible or offer a degree prime to nb
        if ds == [ns] or any(gcd(f, nb) == 1 for f in ds):
            big_parts = _ddf(big, p)
            db = None if big_parts is None else _degrees(big_parts)
            if db is not None and (
                    (ds == [ns] and any(gcd(f, ns) == 1 for f in db))
                    or (db == [nb] and any(gcd(f, nb) == 1 for f in ds))):
                return True
        inert = inert or ds == [ns] or db == [nb]
        if good == GOOD_PRIMES and not inert:
            break
    return False


def composed_factors(m1, m2):
    """The irreducible factors of cand = cand_sum(m1, m2).  Its roots are
    the sums of every pair of conjugates, so when Q(t1, t2) has full degree
    (full_degree) and those sums are distinct (cand square-free: its Sturm
    chain ends in a constant), t1 + t2 has degree deg(cand) and cand is its
    minimal polynomial, whose chain root selection then counts on."""
    cand = cand_sum(m1, m2)
    if full_degree(m1, m2) and len(sturm_chain(cand)[-1]) == 1:
        return (cand,)
    return factor_int(cand)


def irreducible_factors(c):
    """factor_int(c), for any nonzero c.  Musser's test ("On the efficiency
    of a polynomial irreducibility test", JACM 1978) certifies the
    square-free part s of c irreducible first: a factor of s over Q of
    degree k reduces mod every good prime to a product of some of its
    factors there, so k is a sum of some of their degrees; when no proper
    k survives GOOD_PRIMES good primes, s is irreducible."""
    s = squarefree_part(c)
    n = degree(s)
    if n <= 0:
        return ()
    if n == 1:
        return (s,)
    proper = (1 << n) - 2          # bit k: a factor of degree k
    for _, parts in islice(_good_primes(s), GOOD_PRIMES):
        sums = 1
        for d in _degrees(parts):
            sums |= sums << d
        proper &= sums
        if not proper:
            return (s,)
    return factor_int(c)


# -- Sturm machinery --------------------------------------------------------

@lru_cache(maxsize=CACHE_SIZE)
def sturm_chain(c):
    """The Sturm chain of a nonzero c, primitive integer rows: c and c',
    then each row a positive multiple of minus the remainder of the two
    before it, down to the last nonzero one, which is gcd(c, c') up to a
    constant (a constant for square-free c, the one row of a constant c)."""
    chain, rem = [primitive(c)], derivative(primitive(c))
    while rem:
        # divide out the positive content: flipping a row's sign breaks the count
        g = gcd(*rem)
        chain.append(tuple(v // g for v in rem))
        if len(rem) == 1:
            break
        # lead^e * (a mod b), turned into a positive multiple of -(a mod b)
        rem, e = pseudo_rem(chain[-2], chain[-1])
        if chain[-1][-1] > 0 or e % 2 == 0:
            rem = tuple(-v for v in rem)
    return tuple(chain)


def quo_rem(a, b):
    """(q, r, e) with lead(b)^e * a = q*b + r and deg r < deg b, for b != 0,
    in integers (pseudo-division; e = 0 for monic b)."""
    r, lb, db, e = list(a), b[-1], degree(b), 0
    q = []
    while len(r) > db:
        f = r.pop()
        if f:
            if lb != 1:
                r = [lb * v for v in r]
                q = [lb * v for v in q]
                e += 1
            for i in range(db):
                r[len(r) - db + i] -= f * b[i]
        q.append(f)
    return normalize(reversed(q)), normalize(r), e


def pseudo_rem(a, b):
    """(r, e) with lead(b)^e * a = q*b + r and deg r < deg b, in integers."""
    return quo_rem(a, b)[1:]


def _variations(chain, t):
    signs = [v for v in (sign_at(row, t) for row in chain) if v]
    return sum(1 for i in range(len(signs) - 1) if signs[i] != signs[i + 1])


def count_roots_halfopen(c, lo, hi):
    """Number of distinct real roots of c in (lo, hi], for lo and hi no
    multiple roots of c: wherever gcd(c, c') is nonzero, dividing each row
    of c's Sturm chain by it keeps the sign variations, and the quotients
    form a Sturm chain of c's square-free part.  A quadratic builds no
    chain: its roots up to lo and up to hi are counted in closed form
    (_quadratic_roots_upto), at any lo and hi."""
    if lo >= hi:
        return 0
    if len(c) == 3:
        disc = discriminant(c)
        if disc < 0:
            return 0
        return _quadratic_roots_upto(c, disc, hi) - _quadratic_roots_upto(c, disc, lo)
    chain = sturm_chain(c)
    return _variations(chain, lo) - _variations(chain, hi)


def _quadratic_roots_upto(c, disc, t):
    """The number of distinct roots <= t of c = c0 + c1*x + c2*x^2 of
    discriminant disc >= 0, from two signs at t = p/q, each taken times
    the lead's: of c(t), negative strictly between the roots, and of
    c'(t), which tells the side of the axis -c1/(2*c2) that t lies on.
    Left of it, only the smaller root can lie at or below t, and does
    unless c(t) has the lead's sign; right of it, the smaller root does,
    and the larger one too unless c(t) has the opposite sign.  A zero disc
    gives the one double root, at the axis."""
    c0, c1, c2 = c
    p, q = t.as_integer_ratio()
    side = (2 * c2 * p + c1 * q) * c2
    if disc == 0:
        return int(side >= 0)
    s = (c0 * q * q + c1 * p * q + c2 * p * p) * c2
    return int(s <= 0) if side < 0 else 1 + (s >= 0)


def root_bound(c):
    """Cauchy bound: every real root lies strictly inside (-B, B)."""
    lead = abs(c[-1])
    m = max(abs(v) for v in c[:-1]) if len(c) > 1 else 0
    return Fraction(m, lead) + 1


def isolate_roots(c):
    """Isolating intervals for all real roots of an irreducible polynomial
    c, by bisection.

    Returns ascending disjoint (lo, hi) pairs, one root per interval; no
    endpoint is a root (a linear c keeps the first interval (-B, B)).
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


def squarefree_part(c):
    """The product of c's distinct irreducible factors, primitive, for a
    nonzero c: c divided exactly by gcd(c, c'), the last row of its Sturm
    chain, so the chain that gives it also counts c's roots."""
    return primitive(quo_rem(c, sturm_chain(c)[-1])[0])

