"""An oracle for L1-L3 that shares no arithmetic with the package: each
construction restated in closed form with sympy's sqrt, CRootOf and
Matrix, and one check, same_value, that a value of ours is the real
number a sympy expression denotes.

same_value asks three things of sympy: the primitive form of its minimal
polynomial is ours; the expression lies in our isolating interval, by
sympy's evaluation or its comparisons with the rational ends; and that
polynomial has exactly one root there.  Two routes of the package that
pick the same wrong root of the right polynomial agree with each other;
they fail here.

Operands arrive as the package prints them (expr.to_expr), with
root(c0, ..., cn, k) read as CRootOf: value(), vector(), point() and
matrix() read them, and parse() reads any expression of the grammar.
"""

from fractions import Fraction

import sympy
from sympy import CRootOf, Integer, Matrix, Poly, Rational, sqrt

from rotagraph import expr

X = sympy.Symbol("x")


def _root(*args):
    """root(c0, ..., cn, k): the k-th real root, ascending, of
    c0 + c1 x + ... + cn x^n, in radicals where sympy writes it so (a
    quadratic or a binomial), which its minimal_polynomial reads faster."""
    *coeffs, k = args
    return CRootOf(Poly(coeffs[::-1], X), int(k), radicals=True)


def parse(text):
    """The sympy value of an expression in the package's grammar."""
    return sympy.sympify(text, locals={"root": _root, "sqrt": sqrt}, rational=True)


def value(v):
    """The sympy value of one of ours: a rational as it is, and otherwise
    read from its printed form."""
    if v.is_rational:
        return rational(v.as_rational())
    return parse(expr.to_expr(v))


def vector(vs):
    return Matrix([value(v) for v in vs])


def point(p):
    """p's unit lift as a column."""
    return vector(p.lift)


def matrix(m):
    return Matrix([[value(v) for v in row] for row in m.rows])


def rational(r):
    r = Fraction(r)
    return Rational(r.numerator, r.denominator)


def min_poly(e, degree=0):
    """The primitive integer form of sympy's minimal polynomial of e,
    ascending, as min_poly reads ours.  `degree`, ours, picks sympy's
    method: Groebner bases below degree 8 for e written in radicals, the
    faster way there; resultants (compose) otherwise, and for a CRootOf,
    which Groebner bases do not take."""
    compose = degree >= 8 or e.has(CRootOf)
    _, m = sympy.minimal_polynomial(e, X, polys=True, compose=compose).primitive()
    if m.LC() < 0:
        m = -m
    return tuple(int(c) for c in reversed(m.all_coeffs()))


def same_value(ours, e):
    """Whether ours (an AlgReal) is the real number e: the primitive form
    of e's minimal polynomial is ours.min_poly, e lies in ours.interval,
    and that polynomial has exactly one root there.  A comparison sympy
    cannot decide counts as a failure."""
    e = sympy.expand(e)         # multiplied out, sympy's minimal_polynomial runs faster
    if e.is_Rational:           # its minimal polynomial is x - e
        return ours.is_rational and ours.as_rational() == Fraction(e.p, e.q)
    f = min_poly(e, ours.degree)
    if f != ours.min_poly:
        return False
    if ours.is_rational:        # x - r has one root
        return True
    # (lo, hi] holds e, and f has one root in [lo, hi], which is not lo
    # since f is irreducible of degree > 1
    lo, hi = map(rational, ours.interval)
    try:
        inside = sign(e - lo) > 0 and sign(hi - e) >= 0
    except ValueError:
        return False
    return inside and Poly(f[::-1], X).count_roots(lo, hi) == 1


def same_values(ours, es):
    ours, es = list(ours), list(es)
    return len(ours) == len(es) and all(map(same_value, ours, es))


def same_point(p, e):
    """Whether the point p is the unit column e with canonical sign."""
    return same_values(p.lift, e)


def same_matrix(m, e):
    return same_values((v for row in m.rows for v in row), e)


# -- signs, decided by sympy ---------------------------------------------------

def sign(e):
    """-1, 0 or 1, decided by sympy: by e's value to 30 digits (its evalf,
    which raises where it cannot reach that accuracy, as at 0), then by
    its comparison with 0, which takes several times longer, and where
    neither decides, zero when e's minimal polynomial is x."""
    e = sympy.sympify(e)
    try:
        x = e.evalf(30, strict=True)
        if x.is_Number and x != 0:
            return 1 if x > 0 else -1
    except sympy.core.evalf.PrecisionExhausted:
        pass
    for s, relation in ((1, sympy.Gt), (-1, sympy.Lt)):
        if relation(e, 0) is sympy.true:
            return s
    if sympy.minimal_polynomial(e, X) == X:
        return 0
    raise ValueError(f"sympy cannot decide the sign of {e}")


def expanded(e):
    """e, or each entry of a matrix e, multiplied out: the same number in a
    form that keeps sympy's sign and minimal polynomial work small."""
    if isinstance(e, sympy.MatrixBase):
        return e.applyfunc(expanded)
    return sympy.expand(e)


def canonical(v):
    """v with its first nonzero coordinate positive."""
    for c in v:
        s = sign(c)
        if s:
            return v * s
    raise ValueError("the zero vector has no canonical sign")


def unit(v):
    return expanded(v / sqrt(v.dot(v)))


# -- L2 ------------------------------------------------------------------------

def make_point(*coords):
    """The canonical unit lift of the point spanned by coords."""
    return canonical(unit(Matrix([rational(c) for c in coords])))


def lifts_nonneg(x, y):
    """Unit columns x and +-y with <x, y> >= 0, and that inner product."""
    s = expanded(x.dot(y))
    if sign(s) < 0:
        return x, -y, -s
    return x, y, s


def dist_cos(x, y):
    """cos d = |<x, y>| for unit lifts."""
    return sympy.Abs(x.dot(y))


def geodesic_step(x, y, c):
    """The unit point at angle arccos c from x on the great circle through
    the unit columns x and y, on y's side: (c - beta*s)*x + beta*y with
    s = <x, y> >= 0 and beta^2 = (1 - c^2)/(1 - s^2)."""
    x, y, s = lifts_nonneg(x, y)
    beta = expanded(sqrt((1 - c ** 2) / (1 - s ** 2)))
    return canonical(expanded((c - beta * s) * x + beta * y))


def circle_intersect(x, a, y, b):
    """The point at cosines a from x and b from y (distinct unit columns)
    on the side of the canonical x X y, or None where the circles miss:
    the point alpha*x + beta*y + gamma*n with <., x> = a, <., y> = +-b and
    gamma >= 0."""
    x, y, s = lifts_nonneg(x, y)
    for b in (b, -b):
        alpha = expanded((a - b * s) / (1 - s ** 2))
        beta = expanded((b - a * s) / (1 - s ** 2))
        gamma2 = expanded((1 - alpha * a - beta * b) / (1 - s ** 2))
        if sign(gamma2) >= 0:
            n = canonical(expanded(x.cross(y)))
            return canonical(expanded(alpha * x + beta * y + sqrt(gamma2) * n))
    return None


def rotation(a, c, s):
    """The matrix turning about the unit column a by the angle with cosine
    c and sine s: c I + s [a]_x + (1 - c) a a^T."""
    cross = Matrix([[0, -a[2], a[1]], [a[2], 0, -a[0]], [-a[1], a[0], 0]])
    return expanded(c * sympy.eye(3) + s * cross + (1 - c) * a * a.T)


def frame_chain(o, x, c, s, n):
    """R^i x, i = 0..n, as canonical unit columns, R the rotation about
    the unit column o by the angle (c, s): powers of one matrix."""
    r = rotation(o, c, s)
    chain, v = [canonical(x)], x
    for _ in range(n):
        v = expanded(r * v)
        chain.append(canonical(v))
    return chain


def ell_n_cos(c, n):
    """|c^2 + (1 - c^2) T_n(c / (1 + c))|, the ladder's cosine."""
    return sympy.Abs(c ** 2 + (1 - c ** 2) * sympy.chebyshevt(n, c / (1 + c)))


# -- L3 ------------------------------------------------------------------------

def minor2_sum(m):
    """The sum of the principal 2x2 minors, (tr(m)^2 - tr(m^2)) / 2."""
    return expanded((m.trace() ** 2 - (m * m).trace()) / 2)


def rotation_about(axis, c, s):
    """The rotation about the point with lift `axis`, whose canonical unit
    lift is the axis, by the angle with cosine c and sine s."""
    return rotation(canonical(unit(axis)), c, s)


def orthogonal_sending(x, y):
    """The Householder reflection I - 2 w w^T / <w, w>, w = x - y, for the
    unit columns x and y with <x, y> >= 0, or I when they agree."""
    x, y, _ = lifts_nonneg(x, y)
    w = x - y
    n2 = w.dot(w)
    if sign(n2) == 0:
        return sympy.eye(3)
    return expanded(sympy.eye(3) - 2 * w * w.T / n2)
