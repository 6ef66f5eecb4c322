import collections
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sectorfact.linalg import format_rational
from sectorfact.minkowski import (
    DoubleCone,
    ExhaustedRetries,
    LightconeHit,
    MPoint,
    NoHit,
    WitnessDiagram,
    build_witness,
    cauchy_lift,
    causally_disjoint,
    certify_segment_spacelike,
    check_projection_inequality,
    chron_after,
    cone_contains,
    cone_from_json,
    cone_included,
    cone_to_json,
    homotopy_point,
    in_closure,
    minkowski_inner,
    minkowski_sq,
    outside_causal_hull,
    point_from_json,
    point_to_json,
    project_cone,
    segment_lightcone_hit,
    segment_spacelike_data,
    sq_interval,
)
from sectorfact.reports import PreconditionError, dump_json

P = MPoint.of

UNIT = DoubleCone(P(-1, 0), P(1, 0))
TILTED = DoubleCone(P(-1, 0), P(1, 1))


def grid_points_in(cone, denom=8):
    """All rational grid points strictly inside the cone's bounding box."""
    half = (cone.pplus.t - cone.pminus.t) / 2
    c = cone.center
    pts = []
    ranges = [
        [c.t + F(k, denom) * half for k in range(-denom + 1, denom)]
    ] + [
        [xi + F(k, denom) * half for k in range(-denom + 1, denom)]
        for xi in c.x
    ]
    if len(c.x) == 1:
        for t in ranges[0]:
            for x in ranges[1]:
                p = MPoint(t, (x,))
                if cone_contains(cone, p):
                    pts.append(p)
    return pts


# -- interval and order predicates ------------------------------------------------


def test_sq_interval_signature():
    assert sq_interval(P(0, 0), P(1, 0)) == -1
    assert sq_interval(P(0, 0), P(0, 1)) == 1
    assert sq_interval(P(0, 0), P(1, 1)) == 0


def test_dimension_mismatch():
    with pytest.raises(PreconditionError):
        sq_interval(P(0, 0), P(0, 1, 2))


def test_chronology():
    assert chron_after(P(1, 0), P(0, 0))
    assert not chron_after(P(1, 2), P(0, 0))
    assert not chron_after(P(1, 1), P(0, 0))  # null is excluded


def test_cone_membership():
    assert cone_contains(UNIT, P(0, 0))
    assert not cone_contains(UNIT, P(0, 1))
    assert cone_contains(UNIT, P(0, F(1, 2)))


def test_invalid_cone_rejected():
    with pytest.raises(PreconditionError):
        DoubleCone(P(0, 0), P(1, 2))  # spacelike tips
    with pytest.raises(PreconditionError):
        DoubleCone(P(1, 0), P(0, 0))  # reversed


# -- inclusion with sampling oracle --------------------------------------------------


def test_inclusion_examples():
    assert cone_included(DoubleCone(P(F(-1, 2), 0), P(F(1, 2), 0)), UNIT)
    assert not cone_included(DoubleCone(P(F(-1, 2), 1), P(F(1, 2), 1)), UNIT)
    assert cone_included(UNIT, UNIT)


def test_inclusion_against_sampling_oracle():
    rng = random.Random(2024)
    agree = 0
    for _ in range(60):
        x0 = F(rng.randint(-12, 12), 8)
        r = F(rng.randint(1, 10), 8)
        tilt = F(rng.randint(-8, 8), 16) * r
        inner = DoubleCone(P(-r, x0), MPoint(r, (x0 + tilt,)))
        decision = cone_included(inner, UNIT)
        if decision:
            # tip criterion implies set inclusion: dense sampling finds no escape
            assert all(cone_contains(UNIT, p) for p in grid_points_in(inner, 6))
        else:
            # converse: refine the grid until an escaping point appears
            escaped = any(
                not cone_contains(UNIT, p)
                for denom in (6, 12, 24, 48)
                for p in grid_points_in(inner, denom)
            )
            assert escaped, f"verdict not-included but no escape found: {inner}"
            agree += 1
    assert agree > 0


# -- causal disjointness with sampling oracle -------------------------------------------


def test_disjointness_examples():
    u2 = DoubleCone(P(-1, 4), P(1, 4))
    assert causally_disjoint(UNIT, u2)
    u3 = DoubleCone(P(-1, F(3, 2)), P(1, F(3, 2)))
    assert not causally_disjoint(UNIT, u3)
    assert not causally_disjoint(UNIT, UNIT)


def test_disjointness_sampling_oracle():
    u2 = DoubleCone(P(-1, 4), P(1, 4))
    for p in grid_points_in(UNIT, 5):
        for q in grid_points_in(u2, 5):
            assert sq_interval(p, q) > 0


def test_non_disjointness_witnessed_by_points():
    # converse oracle: whenever the tip criterion says not-disjoint, a
    # causally related pair of sampled points must exist
    rng = random.Random(77)
    confirmed = 0
    while confirmed < 25:
        x = F(rng.randint(-6, 6), 4)
        r = F(rng.randint(2, 8), 4)
        other = DoubleCone(P(-r, x), P(r, x))
        if causally_disjoint(UNIT, other):
            continue
        related = any(
            sq_interval(p, q) <= 0
            for denom in (6, 12, 24)
            for p in grid_points_in(UNIT, denom)
            for q in grid_points_in(other, denom)
        )
        assert related, f"not-disjoint verdict without witnessing pair: {other}"
        confirmed += 1


@settings(max_examples=120, deadline=None)
@given(st.integers(-6, 6), st.integers(1, 4), st.integers(-6, 6), st.integers(1, 4))
def test_disjointness_symmetric(x1, r1, x2, r2):
    u1 = DoubleCone(P(-r1, x1), P(r1, x1))
    u2 = DoubleCone(P(-r2, x2), P(r2, x2))
    assert causally_disjoint(u1, u2) == causally_disjoint(u2, u1)


def test_disjointness_monotone_under_inclusion():
    rng = random.Random(7)
    checked = 0
    while checked < 200:
        xs = [F(rng.randint(-40, 40), 8) for _ in range(2)]
        rs = [F(rng.randint(2, 16), 8) for _ in range(2)]
        v1 = DoubleCone(P(-rs[0], xs[0]), P(rs[0], xs[0]))
        v2 = DoubleCone(P(-rs[1], xs[1]), P(rs[1], xs[1]))
        if not causally_disjoint(v1, v2):
            continue
        shrink = [F(rng.randint(1, 7), 8) for _ in range(2)]
        u1 = DoubleCone(P(-rs[0] * shrink[0], xs[0]), P(rs[0] * shrink[0], xs[0]))
        u2 = DoubleCone(P(-rs[1] * shrink[1], xs[1]), P(rs[1] * shrink[1], xs[1]))
        assert cone_included(u1, v1) and cone_included(u2, v2)
        assert causally_disjoint(u1, u2)
        checked += 1


# -- projection --------------------------------------------------------------------------


def test_project_upright():
    shadow = project_cone(UNIT)
    assert shadow.marked == (F(0),)
    assert shadow.contains([F(99, 100)]) and not shadow.contains([1])
    assert shadow.contains([F(-99, 100)]) and not shadow.contains([-1])


def test_project_tilted():
    shadow = project_cone(TILTED)
    assert shadow.marked == (F(1, 2),)
    # interval (-1/2, 3/2)
    assert shadow.contains([F(-49, 100)]) and not shadow.contains([F(-1, 2)])
    assert shadow.contains([F(149, 100)]) and not shadow.contains([F(3, 2)])


def test_projection_against_exists_t_oracle():
    # oracle: x is in the shadow iff some grid time puts (t; x) inside the cone
    for cone in (UNIT, TILTED, DoubleCone(P(-2, 1), P(1, 0))):
        shadow = project_cone(cone)
        half = (cone.pplus.t - cone.pminus.t) / 2
        c = cone.center
        for k in range(-40, 41):
            x = c.x[0] + F(k, 20) * half
            oracle = any(
                cone_contains(cone, MPoint(c.t + F(j, 64) * half, (x,)))
                for j in range(-64 + 1, 64)
            )
            decided = shadow.contains([x])
            if decided:
                assert oracle, f"shadow claims {x} but no witness time found"
            else:
                assert not oracle, f"oracle found time for {x} outside shadow"


def test_marked_point_inside_shadow():
    for cone in (UNIT, TILTED):
        assert project_cone(cone).contains(project_cone(cone).marked)


def test_ball_region():
    from sectorfact.minkowski import SpatialConvex

    ball = SpatialConvex.ball([F(1), F(0)], F(2))
    assert ball.contains([F(1), F(1)])
    assert not ball.contains([F(3), F(0)])  # boundary excluded
    assert ball.marked == (F(1), F(0))
    with pytest.raises(PreconditionError):
        SpatialConvex.ball([0], 0)
    with pytest.raises(PreconditionError):
        SpatialConvex.ball([0], 1, marked=[5])


@settings(max_examples=200, deadline=None)
@given(
    st.fractions(min_value=-9, max_value=9, max_denominator=16),
    st.fractions(min_value=-9, max_value=9, max_denominator=16),
    st.fractions(min_value=-9, max_value=9, max_denominator=16),
    st.fractions(min_value=-9, max_value=9, max_denominator=16),
)
def test_projection_inequality_identity(t1, x1, t2, x2):
    assert check_projection_inequality(MPoint(t1, (x1,)), MPoint(t2, (x2,)))


def test_projection_inequality_examples():
    assert check_projection_inequality(P(0, 0), P(5, 1))
    assert check_projection_inequality(P(0, 0), P(0, 0))


# -- light-cone intersections ---------------------------------------------------------------


def test_exact_hits():
    h = segment_lightcone_hit(P(0, 0), P(0, 4), P(1, 0), branch="future")
    assert h.exact and h.s == F(1, 4) and h.point == P(0, 1)
    h2 = segment_lightcone_hit(P(0, 0), P(0, 4), P(1, 4), branch="past")
    assert h2.exact and h2.point == P(0, 3)


def test_no_hit():
    with pytest.raises(NoHit):
        segment_lightcone_hit(P(0, 0), P(0, 4), P(10, 2), branch="future")


def test_two_dimensional_hits_always_rational():
    # in two dimensions the interval form factors into null coordinates,
    # so segment/light-cone intersections are rational whenever they exist
    rng = random.Random(5)
    found = 0
    while found < 40:
        a = P(F(rng.randint(-8, 8), 4), F(rng.randint(-8, 8), 4))
        b = MPoint(a.t + F(rng.randint(-3, 3), 8), (a.x[0] + F(rng.randint(4, 12), 2),))
        tip = P(F(rng.randint(-8, 8), 4), F(rng.randint(-8, 8), 4))
        try:
            h = segment_lightcone_hit(a, b, tip, branch="future")
        except (NoHit, PreconditionError):
            continue
        assert h.exact
        found += 1


def test_irrational_hit_certificate():
    # dimension three: discriminant 52 is not a square
    a, b, tip = P(0, 0, 0), P(0, 4, 1), P(2, 0, 1)
    h = segment_lightcone_hit(a, b, tip, branch="future")
    assert not h.exact
    assert F(h.certificate["sq_to_tip"]) < 0
    assert h.certificate["side"] == "timelike"
    assert 0 < h.s < 1
    # the rounding stays tight: a few grid steps past the returned parameter
    # the segment has crossed to the spacelike side of the cone
    k = h.certificate["denominator_log2"]
    crossed = a + (b - a).scale(h.s + F(1, 1 << (k - 4)))
    assert sq_interval(crossed, tip) > 0


def test_spacelike_precondition():
    with pytest.raises(PreconditionError):
        segment_lightcone_hit(P(0, 0), P(2, 1), P(1, 0))  # timelike direction


# segment_lightcone_hit decides on the integer frame of a, b and tip.  Below
# is the same routine on Fractions; on every input both must return the same
# hit, or raise the same exception with the same message.


def _rational_sqrt(f: F) -> F | None:
    if f < 0:
        return None
    n, d = f.numerator, f.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn == n and rd * rd == d:
        return F(rn, rd)
    return None


def _sqrt_floor(f: F, k: int) -> F:
    """Dyadic lower bound of sqrt(f) within 2^(1-k)."""
    if f <= 0:
        return F(0)
    scaled = (f.numerator << (2 * k)) // f.denominator
    return F(math.isqrt(scaled), 1 << k)


def reference_segment_lightcone_hit(
    a: MPoint,
    b: MPoint,
    tip: MPoint,
    branch: str = "future",
    denom_log2: int = 16,
) -> LightconeHit:
    """Intersection of the segment a->b with the light cone of `tip`, in
    Fraction arithmetic: the larger root for "future", the smaller for
    "past", rounded to the timelike side when irrational."""
    if branch not in ("future", "past"):
        raise PreconditionError("branch must be 'future' or 'past'")
    d = a - tip
    e = b - a
    A = minkowski_sq(e)
    if A <= 0:
        raise PreconditionError("segment direction must be spacelike")
    B = minkowski_inner(d, e)
    C = minkowski_sq(d)
    disc = B * B - A * C
    if disc < 0:
        raise NoHit("segment misses the light cone: negative discriminant")
    sign = 1 if branch == "future" else -1
    root = _rational_sqrt(disc)
    if root is not None:
        s = (-B + sign * root) / A
        if not (0 <= s <= 1):
            raise NoHit(f"root {s} outside the segment")
        pt = a + e.scale(s)
        q_at = A * s * s + 2 * B * s + C
        return LightconeHit(
            point=pt,
            s=s,
            exact=True,
            certificate={"exact": True, "sq_to_tip": format_rational(q_at)},
        )
    # irrational root: rational approximation on the timelike side (q < 0)
    for k in (denom_log2, denom_log2 + 8, denom_log2 + 16, denom_log2 + 32):
        approx = _sqrt_floor(disc, k)
        s0 = (-B + sign * approx) / A
        step = F(sign, 1 << k) / A
        for j in range(4):
            s = s0 - step * j
            if not (0 < s < 1):
                continue
            q_at = A * s * s + 2 * B * s + C
            if q_at < 0:
                return LightconeHit(
                    point=a + e.scale(s),
                    s=s,
                    exact=False,
                    certificate={
                        "exact": False,
                        "sq_to_tip": format_rational(q_at),
                        "side": "timelike",
                        "denominator_log2": k,
                    },
                )
    raise NoHit("could not certify a timelike-side rational approximation")


def _q(rng, bound):
    den = rng.choice((1, 2, 3, 4, 5, 7, 8, 12))
    return F(rng.randint(-bound * den, bound * den), den)


# spatial vectors of rational length in 1, 2 and 3 dimensions
_PYTHAGOREAN = {1: [(1,)], 2: [(3, 4), (5, 12), (8, 15)], 3: [(1, 2, 2), (2, 3, 6), (4, 4, 7)]}

HIT_KINDS = ("random", "exact", "start", "end", "mismatch")


def hit_case(rng, n, kind, k):
    """(a, b, tip) in 1+(n-1) dimensions.

    "random": any three points.  "exact": the tip's light cone passes
    through a rational point of the segment.  "start" and "end": it crosses
    the segment's line within a few steps 2^-k of s = 0 or s = 1, where the
    rounding may need a later candidate or a finer resolution.  "mismatch":
    the tip or b in another dimension."""
    a = MPoint(_q(rng, 4), tuple(_q(rng, 4) for _ in range(n - 1)))
    ex = tuple(_q(rng, 4) for _ in range(n - 1))
    if not any(ex):
        ex = (F(1),) + ex[1:]
    if kind == "random":
        et = _q(rng, 4)
    else:  # spacelike: |et| below the largest spatial component
        et = max(abs(v) for v in ex) * F(rng.randint(-7, 7), 8)
    e = MPoint(et, ex)
    b = a + e
    if kind == "random":
        return a, b, MPoint(_q(rng, 6), tuple(_q(rng, 6) for _ in range(n - 1)))
    if kind == "mismatch":
        other = MPoint(_q(rng, 4), tuple(_q(rng, 4) for _ in range(rng.choice([n - 2, n]))))
        return (a, b, other) if rng.random() < 0.5 else (a, other, b)
    side = rng.choice((1, -1))  # tip in the future or the past of the hit
    if kind == "exact":
        s = rng.choice((F(0), F(1), F(rng.randint(0, 12), 12)))
        w = tuple(v * rng.choice((1, -1)) for v in rng.choice(_PYTHAGOREAN[n - 1]))
        scale = F(rng.randint(1, 12), rng.randint(1, 6))
        length = math.isqrt(sum(v * v for v in w))
        p = a + e.scale(s)
        return a, b, p + MPoint(side * length * scale, tuple(v * scale for v in w))
    steps = F(rng.randint(-6, 6), 1 << (k + rng.randint(-2, 3))) / minkowski_sq(e)
    p = a + e.scale((0 if kind == "start" else 1) + steps)
    w = tuple(rng.randint(-9, 9) for _ in range(n - 1))
    # |w| rounded up or down far below the grid, so that p is a hair off the cone
    fine = k + 24
    length = F(math.isqrt(sum(v * v for v in w) << (2 * fine)) + rng.randint(0, 1), 1 << fine)
    return a, b, p + MPoint(side * length, tuple(map(F, w)))


def hit_outcome(hit, *args, **kwargs):
    """The hit's point, parameter, exactness and certificate, or the type
    and message of its refusal."""
    try:
        h = hit(*args, **kwargs)
    except (NoHit, PreconditionError) as exc:
        return type(exc).__name__, str(exc)
    return h.point, h.s, h.exact, h.certificate


def hit_kind(a, b, tip, branch, k, outcome):
    """What a hit case exercised: "exact", "first" (the first candidate),
    "later-j" (a later candidate at the first resolution), "later-k" (a
    finer resolution), or the refusal's type and message (without the
    root's value)."""
    if isinstance(outcome[0], str):
        kind, message = outcome
        return kind, "root outside the segment" if message.startswith("root ") else message
    _, s, exact, certificate = outcome
    if exact:
        return "exact"
    if certificate["denominator_log2"] > k:
        return "later-k"
    d, e = a - tip, b - a
    A, B = minkowski_sq(e), minkowski_inner(d, e)
    disc = B * B - A * minkowski_sq(d)
    sign = 1 if branch == "future" else -1
    return "first" if s == (-B + sign * _sqrt_floor(disc, k)) / A else "later-j"


def _check_hit_case(n, kind, branch, k, seed):
    a, b, tip = hit_case(random.Random(seed), n, kind, k)
    fast = hit_outcome(segment_lightcone_hit, a, b, tip, branch=branch, denom_log2=k)
    assert fast == hit_outcome(reference_segment_lightcone_hit, a, b, tip,
                               branch=branch, denom_log2=k)
    return hit_kind(a, b, tip, branch, k, fast)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from([2, 3, 4]),
    st.sampled_from(HIT_KINDS),
    st.sampled_from(["future", "past"]),
    st.integers(6, 22),
    st.integers(0, 2**32 - 1),
)
def test_lightcone_hit_matches_fraction_reference(n, kind, branch, k, seed):
    _check_hit_case(n, kind, branch, k, seed)


def test_lightcone_hit_cases_cover_every_outcome():
    # the cases of the property above, swept on fixed seeds: every outcome
    # of the routine occurs in every dimension and on both branches, except
    # that in 1+1 dimensions a spacelike line meets both null lines of the
    # tip, at rational points
    seen = collections.defaultdict(set)
    for seed in range(1500):
        n, kind, branch = 2 + seed % 3, HIT_KINDS[seed % 5], ("future", "past")[seed // 15 % 2]
        seen[_check_hit_case(n, kind, branch, 6 + seed % 17, seed)].add((n, branch))
    everywhere = {(n, branch) for n in (2, 3, 4) for branch in ("future", "past")}
    for outcome in [
        "exact",
        ("NoHit", "root outside the segment"),
        ("PreconditionError", "segment direction must be spacelike"),
        ("PreconditionError", "dimension mismatch"),
    ]:
        assert seen[outcome] == everywhere, outcome
    for outcome in ["first", "later-j", "later-k",
                    ("NoHit", "segment misses the light cone: negative discriminant"),
                    ("NoHit", "could not certify a timelike-side rational approximation")]:
        assert seen[outcome] == {(n, b) for n, b in everywhere if n > 2}, outcome
    assert len(seen) == 9


# -- witness construction ---------------------------------------------------------------------


def test_witness_bundled_example():
    u1 = DoubleCone(P(-1, 0), P(1, 0))
    u2 = DoubleCone(P(-1, 4), P(1, 4))
    ut = DoubleCone(P(-4, 2), P(4, 2))
    diagram = build_witness(u1, u2, ut)
    checks = diagram.verify(u1, u2, ut)
    assert all(checks.values()), checks
    assert diagram.invariants == checks and diagram.to_json()["invariants"] == checks
    assert cone_included(u1, diagram.V1)
    # the future half-line through (1;0) exits the closure past parameter 3/2
    assert F(diagram.trace["exit_H1_plus"]) > F(3, 2)


def test_witness_tight_containment():
    u1 = DoubleCone(P(-1, 0), P(1, 0))
    u2 = DoubleCone(P(-1, 3), P(1, 3))
    ut = DoubleCone(P(F(-5, 2), F(3, 2)), P(F(5, 2), F(3, 2)))
    diagram = build_witness(u1, u2, ut)
    assert all(diagram.verify(u1, u2, ut).values())


def test_witness_precondition():
    u1 = DoubleCone(P(-1, 10), P(1, 10))
    u2 = DoubleCone(P(-1, 4), P(1, 4))
    ut = DoubleCone(P(-4, 2), P(4, 2))
    with pytest.raises(PreconditionError):
        build_witness(u1, u2, ut)  # u1 not inside ut


def test_witness_three_dimensional():
    u1 = DoubleCone(P(-1, 0, 0), P(1, 0, 0))
    u2 = DoubleCone(P(-1, 5, 1), P(1, 5, 1))
    ut = DoubleCone(P(-6, 2, 0), P(6, 2, 0))
    assert all(build_witness(u1, u2, ut).verify(u1, u2, ut).values())


def test_witness_budget_exhaustion():
    u1 = DoubleCone(P(-1, 0), P(1, 0))
    u2 = DoubleCone(P(-1, 4), P(1, 4))
    ut = DoubleCone(P(-4, 2), P(4, 2))
    with pytest.raises(ExhaustedRetries):
        build_witness(u1, u2, ut, retry_budget=0)


@pytest.mark.parametrize("eps_den", [64, 1024, 4096])
def test_witness_near_touching_cones(eps_den):
    # causal margin of a single fine grid cell between the two cones
    eps = F(1, eps_den)
    u1 = DoubleCone(P(-1, 0), P(1, 0))
    u2 = DoubleCone(MPoint(F(-1), (2 + eps,)), MPoint(F(1), (2 + eps,)))
    ut = DoubleCone(MPoint(F(-4), (1 + eps / 2,)), MPoint(F(4), (1 + eps / 2,)))
    assert causally_disjoint(u1, u2)
    diagram = build_witness(u1, u2, ut)
    assert all(diagram.verify(u1, u2, ut).values())


def test_witness_skewed_sizes_and_stagger():
    tiny = DoubleCone(P(F(-1, 64), 0), P(F(1, 64), 0))
    huge = DoubleCone(P(-3, 6), P(3, 6))
    ut = DoubleCone(P(-8, 3), P(8, 3))
    assert all(build_witness(tiny, huge, ut).verify(tiny, huge, ut).values())

    eps = F(1, 1024)
    low = DoubleCone(P(-2, 0), P(0, 0))
    high = DoubleCone(MPoint(F(0), (4 + eps,)), MPoint(F(2), (4 + eps,)))
    ut2 = DoubleCone(P(-6, 2), P(6, 2))
    assert all(build_witness(low, high, ut2).verify(low, high, ut2).values())


def test_witness_four_dimensional_diagonal():
    eps = F(1, 512)
    u1 = DoubleCone(P(-1, 0, 0, 0), P(1, 0, 0, 0))
    off = (F(2) + eps, F(1), F(1))
    u2 = DoubleCone(MPoint(F(-1), off), MPoint(F(1), off))
    ut = DoubleCone(MPoint(F(-7), (F(1),) * 3), MPoint(F(7), (F(1),) * 3))
    assert all(build_witness(u1, u2, ut).verify(u1, u2, ut).values())


# -- the Fraction witness builder, the oracle of the integer one -------------------------------
#
# build_witness decides its light-cone hits, ray exits, primed cones and
# invariants on integer frames.  Below is the same builder written on
# Fractions, the public Fraction predicates and the Fraction hit above; on
# every cospan both must give the same report bytes, or refuse with the same
# message.


def reference_verify(diagram, u1, u2, utilde):
    return {
        "U1_in_V1": cone_included(u1, diagram.V1),
        "U2_in_V2": cone_included(u2, diagram.V2),
        "Ut_in_W": cone_included(utilde, diagram.W),
        "V1_in_W": cone_included(diagram.V1, diagram.W),
        "V2_in_W": cone_included(diagram.V2, diagram.W),
        "V1_perp_V2": causally_disjoint(diagram.V1, diagram.V2),
        "U1p_in_V1": cone_included(diagram.U1p, diagram.V1),
        "U2p_in_V2": cone_included(diagram.U2p, diagram.V2),
        "U1p_perp_Ut": causally_disjoint(diagram.U1p, utilde),
        "U2p_perp_Ut": causally_disjoint(diagram.U2p, utilde),
        "U1p_perp_U1": causally_disjoint(diagram.U1p, u1),
        "U2p_perp_U2": causally_disjoint(diagram.U2p, u2),
    }


def reference_ray_exit_closure(
    cone: DoubleCone, base: MPoint, direction: MPoint, k: int
) -> F:
    """Smallest dyadic multiple of 2^-k along base + s*direction that exits
    cl(cone); the ray starts inside, so the exit is a single crossing."""
    lo, hi = F(0), F(1)
    guard = 0
    while in_closure(cone, base + direction.scale(hi)):
        lo, hi = hi, hi * 2
        guard += 1
        if guard > 64:
            raise ExhaustedRetries("ray never exits the closure")
    grid = F(1, 1 << k)
    while hi - lo > grid:
        mid = (lo + hi) / 2
        if in_closure(cone, base + direction.scale(mid)):
            lo = mid
        else:
            hi = mid
    # snap hi to the dyadic grid just beyond the crossing
    num = hi / grid
    hi = grid * (num.numerator // num.denominator)
    while in_closure(cone, base + direction.scale(hi)):
        hi += grid
    return hi


def reference_ray_exit_hull(
    cone: DoubleCone, base: MPoint, spatial_dir: tuple[F, ...], k: int
) -> F | None:
    """Dyadic parameter r with base + (0, r*dir) outside J(cl cone).

    Along a purely spatial ray both causal lobes cut out bounded intervals,
    so beyond their upper roots the predicate stays true; doubling plus
    bisection finds a verified boundary point."""
    direction = MPoint(F(0), spatial_dir)
    lo, hi = F(0), F(1)
    guard = 0
    while not outside_causal_hull(cone, base + direction.scale(hi)):
        lo, hi = hi, hi * 2
        guard += 1
        if guard > 48:
            return None
    grid = F(1, 1 << (k + 3))
    while hi - lo > grid:
        mid = (lo + hi) / 2
        if outside_causal_hull(cone, base + direction.scale(mid)):
            hi = mid
        else:
            lo = mid
    return hi


def reference_build_witness(
    u1: DoubleCone,
    u2: DoubleCone,
    utilde: DoubleCone,
    retry_budget: int = 8,
) -> WitnessDiagram:
    """Geometric witness for the extension property of a causally disjoint
    cospan U1, U2 inside Utilde.

    The spacelike segment between the two centers meets each tip's light
    cone once; pushing the tips outward along (roundings of) those null
    directions produces enlarged cones V1, V2 that stay causally disjoint,
    an enclosing cone W, and primed cones U1', U2' placed in the causal
    complement of Utilde inside V1, V2.  Every invariant is re-verified
    exactly before returning; failures retry with finer dyadic resolution.
    """
    for u, nm in ((u1, "U1"), (u2, "U2")):
        if not cone_included(u, utilde):
            raise PreconditionError(f"{nm} is not included in the containing cone")
    if not causally_disjoint(u1, u2):
        raise PreconditionError("U1 and U2 are not causally disjoint")

    a, b = u1.center, u2.center
    failures = []
    for round_idx in range(retry_budget):
        k = 6 + 2 * round_idx
        # smallest push past the closure exit that verifies wins; larger
        # factors enlarge V1, V2 along the same (near-)null directions,
        # which leaves their facing boundaries essentially in place
        for push in (0, 1, 2, 4, 8):
            try:
                diagram = reference_attempt_witness(u1, u2, utilde, a, b, k, push)
            except (NoHit, PreconditionError, ExhaustedRetries) as exc:
                failures.append(f"round {round_idx} push {push}: {exc}")
                continue
            if diagram is None:
                failures.append(
                    f"round {round_idx} push {push}: construction fell outside a region"
                )
                continue
            if all(reference_verify(diagram, u1, u2, utilde).values()):
                return diagram
            bad = [kk for kk, v in reference_verify(diagram, u1, u2, utilde).items() if not v]
            failures.append(f"round {round_idx} push {push}: failed invariants {bad}")
    raise ExhaustedRetries(
        "no verified witness within the retry budget: " + "; ".join(failures[-6:])
    )


def reference_attempt_witness(u1, u2, utilde, a, b, k, push=0) -> WitnessDiagram | None:
    n_spatial = len(a.x)
    trace: dict = {"denominator_log2": k, "push": push}
    scale_time = (utilde.pplus.t - utilde.pminus.t) / 4

    def hits_for(cone: DoubleCone, branch: str):
        hp = reference_segment_lightcone_hit(a, b, cone.pplus, branch=branch, denom_log2=k)
        hm = reference_segment_lightcone_hit(a, b, cone.pminus, branch=branch, denom_log2=k)
        return hp, hm

    h1p, h1m = hits_for(u1, "future")
    h2p, h2m = hits_for(u2, "past")

    # the push direction tip - hit must be future/past causal: exact hits give
    # null directions, timelike-side roundings give timelike ones; either way
    # displacing a tip along its own causal direction only enlarges the cone
    for hit, tip, future in (
        (h1p, u1.pplus, True),
        (h1m, u1.pminus, False),
        (h2p, u2.pplus, True),
        (h2m, u2.pminus, False),
    ):
        causal = sq_interval(hit.point, tip) <= 0
        oriented = tip.t > hit.point.t if future else tip.t < hit.point.t
        if not (causal and oriented):
            return None

    def pushed_tip(hit: LightconeHit, tip: MPoint, label: str) -> MPoint:
        direction = tip - hit.point  # timelike after rounding; exact null when exact
        lam = reference_ray_exit_closure(utilde, tip, direction, k)
        if push:
            lam = lam + push * scale_time / abs(direction.t)
        trace[label] = format_rational(1 + lam)  # parameter along the half-line
        return tip + direction.scale(lam)

    l1p = pushed_tip(h1p, u1.pplus, "exit_H1_plus")
    l1m = pushed_tip(h1m, u1.pminus, "exit_H1_minus")
    l2p = pushed_tip(h2p, u2.pplus, "exit_H2_plus")
    l2m = pushed_tip(h2m, u2.pminus, "exit_H2_minus")

    v1 = DoubleCone(l1m, l1p)
    v2 = DoubleCone(l2m, l2p)

    # enclosing cone around Utilde, V1, V2 via a 1-norm time bound
    cones = (utilde, v1, v2)
    cx = utilde.center.x
    tp = max(
        c.pplus.t + sum(abs(xi - ci) for xi, ci in zip(c.pplus.x, cx)) for c in cones
    ) + 1
    tm = min(
        c.pminus.t - sum(abs(xi - ci) for xi, ci in zip(c.pminus.x, cx)) for c in cones
    ) - 1
    w = DoubleCone(MPoint(tm, cx), MPoint(tp, cx))

    # primed regions: walk from each V_i center away from the other cone,
    # leave the causal hull of Utilde, then shrink an upright cone into place
    def primed(vi: DoubleCone, own: DoubleCone, other: DoubleCone, label: str):
        base = vi.center
        dirs = []
        d_main = tuple(p - q for p, q in zip(own.center.x, other.center.x))
        if any(d_main):
            dirs.append(d_main)
        d_alt = tuple(p - q for p, q in zip(base.x, utilde.center.x))
        if any(d_alt):
            dirs.append(d_alt)
        grid = F(1, 1 << (k + 3))
        for d in dirs:
            r0 = reference_ray_exit_hull(utilde, base, d, k)
            if r0 is None:
                continue
            for j in range(4):  # scan slightly past the hull boundary
                r = r0 + j * grid
                xi = base + MPoint(F(0), d).scale(r)
                if not cone_contains(vi, xi) or not outside_causal_hull(utilde, xi):
                    continue
                eps = (vi.pplus.t - vi.pminus.t) / 8
                for _ in range(28):
                    up = MPoint(eps, tuple(F(0) for _ in range(n_spatial)))
                    cand = DoubleCone(xi - up, xi + up)
                    if cone_included(cand, vi) and causally_disjoint(cand, utilde):
                        trace[label] = format_rational(r)
                        return cand
                    eps /= 2
        return None

    u1p = primed(v1, u1, u2, "primed_1_offset")
    if u1p is None:
        return None
    u2p = primed(v2, u2, u1, "primed_2_offset")
    if u2p is None:
        return None
    return WitnessDiagram(V1=v1, V2=v2, W=w, U1p=u1p, U2p=u2p, trace=trace)



def witness_outcome(u1, u2, ut, budget, reference=False):
    """The report bytes of a witness, or the refusal's message."""
    try:
        if reference:
            diagram = reference_build_witness(u1, u2, ut, retry_budget=budget)
            invariants = reference_verify(diagram, u1, u2, ut)
            return dump_json({**diagram.to_json(), "invariants": invariants})
        return dump_json(build_witness(u1, u2, ut, retry_budget=budget).to_json())
    except ExhaustedRetries as exc:
        return f"refused: {exc}"


def assert_matches_reference(u1, u2, ut):
    for budget in (0, 1, 2, 8):
        fast = witness_outcome(u1, u2, ut, budget)
        assert fast == witness_outcome(u1, u2, ut, budget, reference=True), (budget, fast)


# the method of bench/workloads.py's _random_cospan, copied so that the tests
# do not import the benchmark
def _frac(rng, lo, hi, den=16):
    return F(rng.randint(int(lo * den), int(hi * den)), den)


def _random_cone(rng, n, height_range):
    cx = tuple(_frac(rng, -4, 4) for _ in range(n - 1))
    h = _frac(rng, *height_range)
    tilt = tuple(_frac(rng, -1, 1, 32) * h / 4 for _ in range(n - 1))
    return DoubleCone(
        MPoint(-h, tuple(a - b / 2 for a, b in zip(cx, tilt))),
        MPoint(h, tuple(a + b / 2 for a, b in zip(cx, tilt))),
    )


def random_cospan(rng, n):
    """Two causally disjoint cones inside a containing cone, by construction."""
    while True:
        ut = _random_cone(rng, n, (3, 7))
        half = (ut.pplus.t - ut.pminus.t) / 2
        cones = []
        for _ in range(60):
            px = tuple(x + F(rng.randint(-24, 24), 32) * half for x in ut.center.x)
            r = _frac(rng, 0.05, 0.5, 64) * half
            t0 = ut.center.t + F(rng.randint(-8, 8), 32) * half
            cand = DoubleCone(MPoint(t0 - r, px), MPoint(t0 + r, px))
            if cone_included(cand, ut) and all(causally_disjoint(cand, c) for c in cones):
                cones.append(cand)
            if len(cones) == 2:
                return cones[0], cones[1], ut


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3, 4]), st.integers(0, 2**32 - 1))
def test_witness_matches_fraction_reference_on_random_cospans(n, seed):
    assert_matches_reference(*random_cospan(random.Random(seed), n))


def _near_touching(eps_den, n=2):
    eps, pad = F(1, eps_den), (F(0),) * (n - 2)
    return (
        DoubleCone(MPoint(F(-1), (F(0), *pad)), MPoint(F(1), (F(0), *pad))),
        DoubleCone(MPoint(F(-1), (2 + eps, *pad)), MPoint(F(1), (2 + eps, *pad))),
        DoubleCone(MPoint(F(-4), (1 + eps / 2, *pad)), MPoint(F(4), (1 + eps / 2, *pad))),
    )


_DIAGONAL_OFF = (F(2) + F(1, 512), F(1), F(1))

HAND_PICKED_COSPANS = [
    pytest.param(DoubleCone(P(-1, 0), P(1, 0)), DoubleCone(P(-1, 4), P(1, 4)),
                 DoubleCone(P(-4, 2), P(4, 2)), id="bundled"),
    pytest.param(DoubleCone(P(-1, 0), P(1, 0)), DoubleCone(P(-1, 3), P(1, 3)),
                 DoubleCone(P(F(-5, 2), F(3, 2)), P(F(5, 2), F(3, 2))), id="tight"),
    pytest.param(DoubleCone(P(-1, 0, 0), P(1, 0, 0)), DoubleCone(P(-1, 5, 1), P(1, 5, 1)),
                 DoubleCone(P(-6, 2, 0), P(6, 2, 0)), id="three-dimensional"),
    *(pytest.param(*_near_touching(den, n), id=f"near-touching-1/{den}-d{n}")
      for den in (64, 1024, 4096) for n in (2, 4)),
    pytest.param(DoubleCone(P(F(-1, 64), 0), P(F(1, 64), 0)), DoubleCone(P(-3, 6), P(3, 6)),
                 DoubleCone(P(-8, 3), P(8, 3)), id="skewed-sizes"),
    pytest.param(DoubleCone(P(-2, 0), P(0, 0)),
                 DoubleCone(MPoint(F(0), (4 + F(1, 1024),)), MPoint(F(2), (4 + F(1, 1024),))),
                 DoubleCone(P(-6, 2), P(6, 2)), id="staggered"),
    pytest.param(DoubleCone(P(-1, 0, 0, 0), P(1, 0, 0, 0)),
                 DoubleCone(MPoint(F(-1), _DIAGONAL_OFF), MPoint(F(1), _DIAGONAL_OFF)),
                 DoubleCone(MPoint(F(-7), (F(1),) * 3), MPoint(F(7), (F(1),) * 3)),
                 id="four-dimensional-diagonal"),
]


@pytest.mark.parametrize("u1,u2,ut", HAND_PICKED_COSPANS)
def test_witness_matches_fraction_reference_on_hand_picked_cospans(u1, u2, ut):
    assert_matches_reference(u1, u2, ut)


# -- corruption probes for the integer invariants ---------------------------------------------
#
# A hand-made diagram in the null coordinates a = t + x, b = t - x of 1+1
# dimensions, where a double cone is the open rectangle between its tips
# (a-, b-) and (a+, b+): U1 and U1' lie to the left (large b), U2 and U2'
# to the right (large a), and U1', U2' outside Utilde's causal hull.

PROBE = {
    "u1": ((1, 6), (3, 8)),
    "u2": ((6, 1), (8, 3)),
    "ut": ((0, 0), (10, 10)),
    "V1": ((-3, 5), (4, 12)),
    "V2": ((5, -3), (12, 4)),
    "W": ((-4, -4), (13, 13)),
    "U1p": ((-2, 10), (-1, 11)),
    "U2p": ((10, -2), (11, -1)),
}

# for each invariant, one region moved so that it alone fails
PROBE_BREAKS = {
    "U1_in_V1": ("V1", ((-3, 5), (2, 12))),  # V1 shrunk below U1
    "U2_in_V2": ("V2", ((5, -3), (12, 2))),
    "Ut_in_W": ("ut", ((-100, 100), (-99, 101))),  # Utilde far out to the left
    "V1_in_W": ("W", ((-4, -4), (13, 11))),
    "V2_in_W": ("W", ((-4, -4), (11, 13))),
    "V1_perp_V2": ("V1", ((-3, 5), (6, 12))),
    "U1p_in_V1": ("U1p", ((-5, 10), (-4, 11))),
    "U2p_in_V2": ("U2p", ((10, -5), (11, -4))),
    "U1p_perp_Ut": ("U1p", ((-2, 9), (-1, 10))),  # U1' inside Utilde's causal hull
    "U2p_perp_Ut": ("U2p", ((9, -2), (10, -1))),
    "U1p_perp_U1": ("u1", ((-2, 9), (0, 11))),  # U1 grown onto U1'
    "U2p_perp_U2": ("u2", ((9, -2), (11, 0))),
}


def probe_cones(regions, n):
    """The null-coordinate rectangles as cones of 1+(n-1) dimensions, moved
    by a rational translation and positive scaling, which keep every
    causal relation and give the integer frame denominators to clear."""
    shift = (F(1, 3), F(-2, 9), F(5, 7), F(1, 11))[:n]
    scale = F(5, 7)

    def point(a, b):
        coords = (F(a + b, 2), F(a - b, 2)) + (F(0),) * (n - 2)
        return MPoint(scale * (coords[0] + shift[0]),
                      tuple(scale * (v + s) for v, s in zip(coords[1:], shift[1:])))

    return {name: DoubleCone(point(*lo), point(*hi)) for name, (lo, hi) in regions.items()}


def probe_verdicts(regions, n):
    cones = probe_cones(regions, n)
    diagram = WitnessDiagram(*(cones[k] for k in ("V1", "V2", "W", "U1p", "U2p")))
    us = (cones["u1"], cones["u2"], cones["ut"])
    return diagram.verify(*us), reference_verify(diagram, *us)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_probe_diagram_holds(n):
    fast, reference = probe_verdicts(PROBE, n)
    assert fast == reference and all(fast.values())


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("key", sorted(PROBE_BREAKS))
def test_invariant_probe_fails_only_its_key(key, n):
    region, moved = PROBE_BREAKS[key]
    fast, reference = probe_verdicts({**PROBE, region: moved}, n)
    assert fast == reference
    assert [k for k, ok in fast.items() if not ok] == [key]


def test_verify_refuses_mixed_dimensions():
    diagram = build_witness(UNIT, DoubleCone(P(-1, 4), P(1, 4)), DoubleCone(P(-4, 2), P(4, 2)))
    with pytest.raises(PreconditionError):
        diagram.verify(DoubleCone(P(-1, 0, 0), P(1, 0, 0)), UNIT, UNIT)


# -- null-coordinate oracles (two dimensions) -------------------------------------
#
# In two dimensions a double cone is exactly an open rectangle in the null
# coordinates a = t + x, b = t - x, giving closed-form independent oracles
# for inclusion, causal disjointness, and the spatial shadow.


def null_rect(cone):
    a_lo = cone.pminus.t + cone.pminus.x[0]
    a_hi = cone.pplus.t + cone.pplus.x[0]
    b_lo = cone.pminus.t - cone.pminus.x[0]
    b_hi = cone.pplus.t - cone.pplus.x[0]
    return (a_lo, a_hi, b_lo, b_hi)


def random_cone_2d(rng):
    x0 = F(rng.randint(-40, 40), 8)
    t0 = F(rng.randint(-20, 20), 8)
    r = F(rng.randint(1, 24), 8)
    tilt = F(rng.randint(-30, 30), 32) * r
    return DoubleCone(
        MPoint(t0 - r, (x0 - tilt / 2,)), MPoint(t0 + r, (x0 + tilt / 2,))
    )


def test_inclusion_matches_null_rectangle_oracle():
    rng = random.Random(31337)
    for _ in range(400):
        inner, outer = random_cone_2d(rng), random_cone_2d(rng)
        ia, ib, ic, id_ = null_rect(inner)
        oa, ob, oc, od = null_rect(outer)
        oracle = oa <= ia and ib <= ob and oc <= ic and id_ <= od
        assert cone_included(inner, outer) == oracle, (inner, outer)


def test_disjointness_matches_null_rectangle_oracle():
    rng = random.Random(271828)
    for _ in range(400):
        u1, u2 = random_cone_2d(rng), random_cone_2d(rng)
        a1l, a1h, b1l, b1h = null_rect(u1)
        a2l, a2h, b2l, b2h = null_rect(u2)
        # a causal pair (p in U1) <= (q in U2) exists iff both open
        # coordinate intervals of U2 reach above those of U1
        future = a2h > a1l and b2h > b1l
        past = a1h > a2l and b1h > b2l
        oracle = not future and not past
        assert causally_disjoint(u1, u2) == oracle, (u1, u2)


def test_shadow_matches_null_rectangle_oracle():
    rng = random.Random(161803)
    for _ in range(200):
        cone = random_cone_2d(rng)
        a_lo, a_hi, b_lo, b_hi = null_rect(cone)
        # x = (a - b)/2 over the open rectangle gives the open interval
        lo, hi = (a_lo - b_hi) / 2, (a_hi - b_lo) / 2
        shadow = project_cone(cone)
        for k in range(-12, 13):
            x = lo + (hi - lo) * F(k + 12, 24)
            assert shadow.contains([x]) == (lo < x < hi)


# -- Cauchy surface and homotopy -----------------------------------------------------------------


def test_cauchy_lift_upright():
    assert cauchy_lift(UNIT, [F(1, 2)]) == P(0, F(1, 2))


def test_cauchy_lift_tilted():
    assert cauchy_lift(TILTED, [F(1, 2)]) == P(0, F(1, 2))
    assert cauchy_lift(TILTED, [1]) == P(F(1, 4), 1)


def test_cauchy_lift_is_orthogonal_section():
    for cone in (UNIT, TILTED):
        shadow = project_cone(cone)
        for k in range(-8, 9):
            q = (cone.center.x[0] + F(k, 10),)
            if not shadow.contains(q):
                continue
            p = cauchy_lift(cone, q)
            assert minkowski_inner(p - cone.center, cone.axis) == 0
            assert cone_contains(cone, p)
            assert p.x == q


def test_cauchy_lift_outside_shadow():
    with pytest.raises(PreconditionError):
        cauchy_lift(UNIT, [2])


def test_homotopy_endpoints():
    p = P(F(1, 2), 0)
    assert homotopy_point(UNIT, p, 1) == p
    assert homotopy_point(UNIT, p, 0) == cauchy_lift(UNIT, p.x)
    assert homotopy_point(UNIT, p, F(1, 2)) == P(F(1, 4), 0)


def test_homotopy_preconditions():
    with pytest.raises(PreconditionError):
        homotopy_point(UNIT, P(0, 2), F(1, 2))
    with pytest.raises(PreconditionError):
        homotopy_point(UNIT, P(0, 0), 2)


# -- segment certification --------------------------------------------------------------------------


def test_certify_examples():
    assert certify_segment_spacelike(P(0, 2), P(1, 2))  # -s^2 + 4 on [0,1]
    assert certify_segment_spacelike(P(0, 1), P(0, 1))
    with pytest.raises(PreconditionError):
        certify_segment_spacelike(P(0, 2), P(3, 2))  # second vector timelike


def test_certify_data_fields():
    data = segment_spacelike_data(P(0, 2), P(1, 2))
    assert data["a"] == "-1" and data["c"] == "4"
    assert data["positive"] is True


def test_certify_detects_failure():
    # two spacelike vectors whose chord dips into timelike: v and w nearly
    # opposite spatial directions with a large time swing at the midpoint
    v = P(F(-9, 10), 1)
    w = P(F(9, 10), -1)
    data = segment_spacelike_data(v, w)
    assert data["positive"] is False


# -- JSON ----------------------------------------------------------------------------------------------


def test_point_json_round_trip():
    p = P(F(1, 3), F(-2, 7), 5)
    assert point_from_json(point_to_json(p)) == p


def test_cone_json_round_trip():
    assert cone_from_json(cone_to_json(TILTED)) == TILTED
