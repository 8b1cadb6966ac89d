"""The unit-distance graph on the elliptic plane with edge length l.

Vertices are all projective points; p ~ q iff d(p, q) = l exactly.  For
l < pi/4 (equivalently cos^2 l > 1/2) the graph metric has the closed form
d_G(p, q) = ceil(d(p, q) / l) away from the trivial cases, certified here
by Chebyshev comparisons on cosines, never by floating arccos.
"""

from bisect import bisect_left
from fractions import Fraction
from itertools import islice

from .algebraic import (
    AlgReal, EQUAL, GREATER, LESS, MAX_STEPS,
    chebyshev_values, compare, div, is_rational_angle, mul,
)
from .elliptic import (
    apex_angle_cos, as_dist_cos, dist_cos, equidistant_point, geodesic_step,
)
from .errors import (
    BoundExceededError,
    OutOfRangeError,
    PreconditionError,
    SearchExhaustedError,
)

_ONE = AlgReal(1)
_HALF = AlgReal(Fraction(1, 2))


class GraphSpec:
    """Parameters of the unit-distance graph: the edge-length cosine and a
    flag recording whether the strict regime l < pi/4 holds (needed for the
    ceiling formula and the witness-path construction)."""

    __slots__ = ("cos_l", "strict")

    def __init__(self, cos_l):
        cos_l = as_dist_cos(cos_l)
        c = cos_l.value
        if c.sign() <= 0 or compare(c, _ONE) != LESS:
            raise OutOfRangeError("edge cosine must lie strictly in (0, 1)")
        self.cos_l = cos_l
        # cos^2 l > 1/2  <=>  l < pi/4
        self.strict = compare(mul(c, c), _HALF) == GREATER

    def __repr__(self):
        return f"GraphSpec(cos_l~{float(self.cos_l.value):.6g}, strict={self.strict})"


class Path:
    """A vertex sequence whose consecutive distances are all the edge length."""

    __slots__ = ("points",)

    def __init__(self, points):
        self.points = tuple(points)

    def __len__(self):
        return len(self.points) - 1


def is_edge(spec, p, q):
    return dist_cos(p, q) == spec.cos_l


def graph_distance(spec, p, q):
    """Exact graph distance with a certificate.

    Returns (k, certificate) where the certificate records the comparisons
    that pin down k: cos d(p, q) against T_{k-1}(cos l) and T_k(cos l).
    Distance k >= 2 is certified by T_{k-1}(cos l) > cos d (too far for
    k - 1 steps) together with reachability in k steps, which in the strict
    regime is cos d >= T_k(cos l) or T_k(cos l) <= 0 (the k-ball already
    covers the whole plane).
    """
    c = spec.cos_l.value
    d = dist_cos(p, q).value
    if compare(d, _ONE) == EQUAL:
        return 0, {"k": 0, "reason": "identical points"}
    if compare(d, c) == EQUAL:
        return 1, {"k": 1, "reason": "exact edge"}
    if not spec.strict:
        raise PreconditionError(
            "graph distance formula requires the strict regime l < pi/4")
    # past MAX_STEPS steps chebyshev_values raises BoundExceededError
    for k, tk in enumerate(chebyshev_values(c)):
        if k > 1 and (tk.sign() <= 0 or compare(d, tk) != LESS):
            upper = ("T_%d(cos l) <= 0" % k) if tk.sign() <= 0 \
                else ("cos d(p, q) >= T_%d(cos l)" % k)
            # any distinct non-adjacent pair needs at least two steps,
            # including pairs strictly closer than one edge length; past
            # two, step k - 1 did not return, so T_{k-1}(cos l) > cos d
            lower = "p != q and d(p, q) != l" if k == 2 \
                else f"T_{k-1}(cos l) > cos d(p, q)"
            return k, {"k": k, "lower": lower, "upper": upper}


def witness_path(spec, p, q):
    """A geodesic-based path realising the graph distance.

    Walks unit steps along the geodesic from p toward q while the remaining
    distance exceeds 2l, then closes with a two-step detour through an
    equidistant point (remaining distance in (l, 2l] guarantees one exists).
    """
    k, _ = graph_distance(spec, p, q)
    c = spec.cos_l.value
    if k == 0:
        return Path([p])
    if k == 1:
        return Path([p, q])
    pts = [p]
    cur = p
    steps_left = k
    while steps_left > 2:
        cur = geodesic_step(cur, q, spec.cos_l)
        pts.append(cur)
        steps_left -= 1
    mid = equidistant_point(cur, q, spec.cos_l)
    pts.extend([mid, q])
    path = Path(pts)
    if not verify_path(spec, path, p, q, k):
        raise PreconditionError("constructed path failed verification")
    return path


def verify_path(spec, path, p, q, k=None):
    """Exact check: endpoints match, every consecutive pair is an edge, and
    (when k is given) the length equals k."""
    pts = path.points
    if pts[0] != p or pts[-1] != q:
        return False
    if k is not None and len(path) != k:
        return False
    for a, b in zip(pts, pts[1:]):
        if not is_edge(spec, a, b):
            return False
    return True


def diameter(spec):
    """The graph diameter: the least k with T_k(cos l) <= 0, i.e. the least
    k with k*l >= pi/2, since the farthest elliptic distance is pi/2.
    Requires the strict regime (diameter >= 3 there)."""
    if not spec.strict:
        raise PreconditionError("diameter formula requires l < pi/4")
    for k, tk in enumerate(chebyshev_values(spec.cos_l.value)):
        if tk.sign() <= 0:
            return k, {
                "k": k,
                "upper": f"T_{k}(cos l) <= 0",
                "lower": f"T_{k-1}(cos l) > 0",
            }


def validate_spec(spec):
    """Structural report on the edge length: regime flags and whether the
    apex angle of the equilateral triangle is a rational multiple of pi
    (irrational apex is what drives the ladder distances to be dense)."""
    c = spec.cos_l.value
    apex = apex_angle_cos(spec.cos_l)
    return {
        "strict": spec.strict,
        "edge_angle_rational": is_rational_angle(c),
        "apex_angle_rational": is_rational_angle(apex),
    }


def choose_ell_for_diameter(k):
    """A rational cosine giving graph diameter exactly k (k >= 3), with the
    apex angle an irrational multiple of pi.

    The cosines of diameter k form an interval (cos(pi/(2(k-1))),
    cos(pi/(2k))] about pi^2/(4k^3) wide, where consecutive n/(n+1) lie
    only about pi^4/(64k^4) apart: its smallest-denominator fraction is
    n/(n+1) for the least n with T_0, ..., T_{k-1} all positive there
    (diameter at least k), found by bisection over n < k^2.
    """
    if k < 3:
        raise OutOfRangeError("diameter targets below 3 are not in the strict regime")
    if k > MAX_STEPS:
        raise BoundExceededError(f"diameter {k} exceeds the step budget {MAX_STEPS}")

    def reaches(n):
        return all(t.sign() > 0 for t in islice(chebyshev_values(Fraction(n, n + 1)), k))

    n = bisect_left(range(k * k), True, key=reaches)
    spec = GraphSpec(Fraction(n, n + 1))
    c = spec.cos_l.value
    if diameter(spec)[0] != k or is_rational_angle(div(c, c + _ONE)):
        raise SearchExhaustedError(
            "no rational edge cosine found for this diameter")
    return spec
