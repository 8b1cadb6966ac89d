"""Property tests: field laws, round trips through printed expressions and
point JSON, the elliptic constructions and fixed points on generated inputs,
every claim checked exactly; and the CLI's JSON writer against json.dumps."""

import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import sympy_oracle as so
from rotagraph import cli
from rotagraph import elliptic as ep
from rotagraph import expr
from rotagraph import isometry as iso
from rotagraph.algebraic import (
    AlgReal, EQUAL, GREATER, add, compare, div, mul, neg, real_roots,
    sqrt_nonneg, sub,
)
from rotagraph.errors import InfeasibleError, PreconditionError

SETTINGS = settings(derandomize=True, max_examples=25, deadline=None,
                    database=None)

# small integer lifts, so unit lifts are often irrational
lifts = st.tuples(*[st.integers(-3, 3)] * 3).filter(any)
cosines = st.fractions(min_value=0, max_value=1, max_denominator=10)

# Generators of the fields operands are drawn from: Q(sqrt 2) through three
# separate square roots; Q(lambda) for the real root of the integer cubic
# x^3 - 4x + 2, through two separate root() calls; and two different fields
FIELDS = {
    "quadratic": tuple(sqrt_nonneg(AlgReal(v)) for v in (2, 8, Fraction(1, 2))),
    "cubic": tuple(real_roots((2, -4, 0, 1))[1] for _ in range(2)),
    "two fields": (sqrt_nonneg(AlgReal(2)), sqrt_nonneg(AlgReal(3))),
}
coefficients = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def field_triples(draw):
    """Three values sum(c_i * gen^i), i < 3, each over a generator drawn
    from one entry of FIELDS."""
    gens = FIELDS[draw(st.sampled_from(sorted(FIELDS)))]
    out = []
    for _ in range(3):
        gen = draw(st.sampled_from(gens))
        value, power = AlgReal(0), AlgReal(1)
        for c in draw(st.lists(coefficients, min_size=1, max_size=3)):
            value, power = add(value, mul(c, power)), mul(power, gen)
        out.append(value)
    return out


@SETTINGS
@given(field_triples())
def test_field_laws(abc):
    a, b, c = abc
    assert add(a, b) == add(b, a) and mul(a, b) == mul(b, a)
    assert add(add(a, b), c) == add(a, add(b, c))
    assert mul(mul(a, b), c) == mul(a, mul(b, c))
    assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
    assert sub(a, a) == 0
    if a.sign() != 0:
        assert mul(a, div(1, a)) == 1
    assert hash(add(a, b)) == hash(add(b, a))


@SETTINGS
@given(field_triples())
def test_expressions_round_trip(abc):
    for v in abc + [div(abc[0], abc[1]) if abc[1].sign() else abc[1]]:
        assert expr.parse(expr.to_expr(v)) == v


@SETTINGS
@given(lifts, lifts, cosines, cosines)
def test_circle_intersect_hits_both_distances(u, v, a, b):
    p, q = ep.make_point(*u), ep.make_point(*v)
    try:
        r = ep.circle_intersect(p, a, q, b)
    except InfeasibleError:
        return
    assert ep.dist_cos(r, p) == a and ep.dist_cos(r, q) == b


@settings(derandomize=True, max_examples=3, deadline=None, database=None)
@given(field_triples())
def test_field_operations_match_the_sympy_oracle(abc):
    """add, sub, mul, div and sqrt on drawn values are sympy's, read from
    the values' printed forms."""
    a, b, c = abc
    x, y, z = map(so.value, abc)
    assert so.same_value(add(a, b), x + y) and so.same_value(sub(b, c), y - z)
    assert so.same_value(mul(a, c), x * z)
    if b.sign():
        assert so.same_value(div(a, b), x / y)
    assert so.same_value(sqrt_nonneg(mul(c, c)), z * so.sign(z))


@settings(derandomize=True, max_examples=3, deadline=None, database=None)
@given(lifts, lifts, cosines, cosines)
def test_constructions_match_the_sympy_oracle(u, v, a, b):
    """dist_cos, circle_intersect (or its InfeasibleError), geodesic_step,
    rotation_about and ell_n_cos on drawn points and cosines are sympy's
    closed forms of them."""
    p, q = ep.make_point(*u), ep.make_point(*v)
    x, y = so.make_point(*u), so.make_point(*v)
    assert so.same_point(p, x) and so.same_point(q, y)
    s = so.dist_cos(x, y)
    assert so.same_value(ep.dist_cos(p, q).value, s)
    ra, rb = so.rational(a), so.rational(b)
    if so.sign(1 - s):              # distinct points
        want = so.circle_intersect(x, ra, y, rb)
        if want is None:
            with pytest.raises(InfeasibleError):
                ep.circle_intersect(p, a, q, b)
        else:
            assert so.same_point(ep.circle_intersect(p, a, q, b), want)
        if so.sign(ra - s) >= 0:
            assert so.same_point(ep.geodesic_step(p, q, a), so.geodesic_step(x, y, ra))
    sine = so.sqrt(1 - ra ** 2)
    assert so.same_matrix(iso.rotation_about(p, a, sqrt_nonneg(AlgReal(1 - a * a))),
                          so.rotation_about(so.Matrix(u), ra, sine))
    if 0 < a < 1:
        assert so.same_value(ep.ell_n_cos(a, 3).value, so.ell_n_cos(ra, 3))


@SETTINGS
@given(lifts, lifts, cosines)
def test_points_round_trip_through_json(u, v, c):
    # made points and geodesic steps: coordinates of degree up to 4
    p, q = ep.make_point(*u), ep.make_point(*v)
    points = [p]
    try:
        points.append(ep.geodesic_step(p, q, c))
    except PreconditionError:
        pass
    for r in points:
        assert ep.point_from_json(ep.point_to_json(r)) == r


@SETTINGS
@given(lifts, lifts, cosines)
def test_geodesic_step_stays_on_the_line(u, v, c):
    p, q = ep.make_point(*u), ep.make_point(*v)
    try:
        r = ep.geodesic_step(p, q, c)
    except PreconditionError:
        assert p == q or compare(ep.dist_cos(p, q).value, AlgReal(c)) == GREATER
        return
    assert ep.dist_cos(p, r) == c
    assert iso.LinearMap((p.lift, q.lift, r.lift)).det().sign() == 0


@SETTINGS
@given(lifts, st.fractions(min_value=-1, max_value=1, max_denominator=9),
       st.booleans())
def test_rotation_about_is_orthogonal_and_fixes_its_axis(u, c, flip):
    axis = ep.make_point(*u)
    s = sqrt_nonneg(AlgReal(1 - c * c))
    r = iso.rotation_about(axis, c, neg(s) if flip else s)
    assert iso.is_orthogonal(r)
    assert compare(r.det(), AlgReal(1)) == EQUAL
    assert compare(r.trace(), AlgReal(1 + 2 * c)) == EQUAL
    image = r.apply_lift(axis.lift)
    assert all(compare(a, b) == EQUAL for a, b in zip(image, axis.lift))


@SETTINGS
@given(st.lists(st.integers(-2, 2), min_size=9, max_size=9))
# eigenspaces of dimension 2 and 3, where M - lambda I has rank <= 1
@example([1, 0, 0, 0, 1, 0, 0, 0, 1])
@example([1, 0, 0, 0, 1, 0, 0, 0, -1])
@example([0, 1, 0, 1, 0, 0, 0, 0, 1])
@example([2, 1, 1, 1, 2, 1, 1, 1, 2])
def test_fixed_point_of_small_integer_matrices(entries):
    m = iso.LinearMap([entries[0:3], entries[3:6], entries[6:9]])
    if m.det().sign() == 0:
        with pytest.raises(PreconditionError):
            iso.fixed_point(m)
        return
    p = iso.fixed_point(m)
    assert iso.apply(m, p) == p


# text with what JSON escapes: control characters, DEL, quotes, backslashes,
# characters of the BMP past ASCII (lone surrogates among them) and past it
json_text = st.text(st.one_of(
    st.characters(max_codepoint=0x7f),
    st.sampled_from('"\\\x7f\x00\x1f\u00e9\u2028\ud800\udfff\uffff'),
    st.characters(min_codepoint=0x80),
    st.characters(min_codepoint=0x10000)), max_size=12)
json_ints = st.one_of(st.integers(-1000, 1000),
                      st.integers(10 ** 299, 10 ** 300 - 1).map(lambda n: -n),
                      st.integers(10 ** 299, 10 ** 300 - 1))
json_keys = st.one_of(json_text, json_ints, st.booleans(), st.none())
json_values = st.recursive(
    st.one_of(json_text, json_ints, st.booleans(), st.none()),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(json_keys, inner, max_size=4)),
    max_leaves=20)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(json_values)
def test_the_cli_writes_what_json_dumps_writes(value):
    for indent in (None, 2):
        assert cli._encode(value, indent) == json.dumps(value, indent=indent)


@pytest.mark.parametrize("value", [1.5, object(), [0, 2.0], {"x": {1.5: 1}}, {(1,): 2}])
def test_the_cli_writer_rejects_what_it_does_not_write(value):
    for indent in (None, 2):
        with pytest.raises(TypeError):
            cli._encode(value, indent)
