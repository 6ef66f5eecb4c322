import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sectorfact.configspace as configspace
from sectorfact.configspace import (
    CausalConfig,
    CertReport,
    SamplingExhausted,
    SpatialConfig,
    certify_homotopy,
    lift_config,
    project_config,
    sample_causal_config,
    sample_spatial_config,
)
from sectorfact.linalg import format_rational
from sectorfact.minkowski import (
    DoubleCone,
    MPoint,
    cauchy_lift,
    cone_contains,
    homotopy_point,
    minkowski_inner,
    minkowski_sq,
    project_cone,
    segment_spacelike_data,
    sq_interval,
)
from sectorfact.reports import PreconditionError, dump_json

P = MPoint.of
_F = F

WIDE = DoubleCone(P(-5, 0), P(5, 0))
TILTED = DoubleCone(P(-2, 0, 0), P(2, 1, F(1, 2)))


def test_constructor_enforces_invariants():
    with pytest.raises(PreconditionError):
        CausalConfig(WIDE, (P(0, 0), P(1, 0)))  # timelike pair
    with pytest.raises(PreconditionError):
        CausalConfig(WIDE, (P(0, 99),))  # outside the cone
    with pytest.raises(PreconditionError):
        SpatialConfig(project_cone(WIDE), ((F(0),), (F(0),)))  # coincident


def test_sampler_sizes_and_determinism():
    assert sample_causal_config(WIDE, 0, seed=1).size == 0
    assert sample_causal_config(WIDE, 1, seed=1).size == 1
    a = sample_causal_config(WIDE, 3, seed=42)
    b = sample_causal_config(WIDE, 3, seed=42)
    assert a.points == b.points
    c = sample_causal_config(WIDE, 3, seed=43)
    assert a.points != c.points


def test_sampler_output_reverified():
    config = sample_causal_config(WIDE, 3, seed=42)
    for i in range(3):
        for j in range(i + 1, 3):
            assert sq_interval(config.points[i], config.points[j]) > 0


def test_sampler_exhaustion():
    tiny = DoubleCone(P(F(-1, 64), 0), P(F(1, 64), 0))
    with pytest.raises(SamplingExhausted):
        sample_causal_config(tiny, 12, seed=5, budget=50)


def test_project_empty_and_order():
    empty = CausalConfig(WIDE, ())
    assert project_config(empty).points == ()
    config = CausalConfig(WIDE, (P(0, 0), P(0, 4)))
    assert project_config(config).points == ((F(0),), (F(4),))


def test_projection_distinctness_many_seeds():
    for seed in range(120):
        config = sample_causal_config(WIDE, 3, seed=seed)
        spatial = project_config(config)
        assert len(set(spatial.points)) == 3


def test_lift_examples():
    unit = DoubleCone(P(-1, 0), P(1, 0))
    shadow = project_cone(unit)
    spatial = SpatialConfig(shadow, ((F(-1, 2),), (F(1, 2),)))
    lifted = lift_config(unit, spatial)
    assert lifted.points == (P(0, F(-1, 2)), P(0, F(1, 2)))

    tilted = DoubleCone(P(-1, 0), P(1, 1))
    spatial2 = SpatialConfig(project_cone(tilted), ((F(1, 2),),))
    assert lift_config(tilted, spatial2).points == (P(0, F(1, 2)),)


def test_round_trip_many_seeds():
    for seed in range(100):
        spatial = sample_spatial_config(WIDE, 4, seed=seed)
        lifted = lift_config(WIDE, spatial)
        assert project_config(lifted).points == spatial.points


def test_lift_rejects_foreign_shadow():
    other = DoubleCone(P(-1, 50), P(1, 50))
    spatial = sample_spatial_config(WIDE, 2, seed=0)
    with pytest.raises(PreconditionError):
        lift_config(other, spatial)


def test_certify_small_sizes_vacuous():
    assert certify_homotopy(CausalConfig(WIDE, ())).certified
    assert certify_homotopy(sample_causal_config(WIDE, 1, seed=3)).certified


def test_certify_example_pair():
    config = CausalConfig(WIDE, (P(F(1, 2), 0), P(F(-1, 2), 4)))
    report = certify_homotopy(config)
    assert report.certified
    assert len(report.pairs) == 1
    assert report.pairs[0]["positive"] is True


def test_certification_campaign():
    # every constructible configuration must certify: a counterexample
    # would contradict the exact positivity argument
    for seed in range(150):
        m = 2 + seed % 4
        cone = WIDE if seed % 2 == 0 else TILTED
        config = sample_causal_config(cone, m, seed=seed)
        report = certify_homotopy(config)
        assert report.certified, (seed, m)
        assert len(report.pairs) == m * (m - 1) // 2


def test_homotopy_endpoints_pointwise():
    config = sample_causal_config(WIDE, 3, seed=9)
    at_one = tuple(homotopy_point(WIDE, p, 1) for p in config.points)
    assert at_one == config.points
    at_zero = tuple(homotopy_point(WIDE, p, 0) for p in config.points)
    assert at_zero == tuple(cauchy_lift(WIDE, p.x) for p in config.points)
    # intermediate configurations stay valid
    mid = CausalConfig(WIDE, tuple(homotopy_point(WIDE, p, F(1, 3)) for p in config.points))
    assert mid.size == 3


def test_certificates_carry_quadratic_data():
    config = sample_causal_config(WIDE, 2, seed=11)
    (pair,) = certify_homotopy(config).pairs
    assert {"a", "b", "c", "q0", "q1", "positive", "pair"} <= set(pair)


def test_json_shapes():
    config = sample_causal_config(WIDE, 2, seed=1)
    doc = config.to_json()
    assert set(doc) == {"cone", "points"}
    spatial = project_config(config)
    doc2 = spatial.to_json()
    assert set(doc2) == {"shadow", "points"}


def test_section_checks_survive_optimize():
    # each check in cauchy_lift (the orthogonality and cone checks of its
    # integer frame), project_config and lift_config must still reject a bad
    # section when python -O strips asserts
    import os
    import subprocess
    import sys

    import sectorfact

    script = (
        "import sys\n"
        "from fractions import Fraction as F\n"
        "import sectorfact.configspace as configspace\n"
        "import sectorfact.minkowski as minkowski\n"
        "from sectorfact.minkowski import DoubleCone, MPoint, project_cone\n"
        "from sectorfact.reports import PreconditionError\n"
        "assert False, 'asserts must be stripped'\n"
        "unit = DoubleCone(MPoint.of(-1, 0), MPoint.of(1, 0))\n"
        "spatial = configspace.SpatialConfig(project_cone(unit), ((F(0),),))\n"
        "pair = configspace.CausalConfig(unit, (MPoint.of(0, 0), MPoint.of(0, F(1, 2))))\n"
        "def raises(run):\n"
        "    try:\n"
        "        run()\n"
        "    except PreconditionError:\n"
        "        return True\n"
        "    return False\n"
        "real_inner, real_inside = minkowski._int_inner, minkowski._int_inside\n"
        "minkowski._int_inner = lambda u, v: 1\n"
        "tilted = raises(lambda: minkowski.cauchy_lift(unit, (F(0),)))\n"
        "minkowski._int_inner = real_inner\n"
        "minkowski._int_inside = lambda minus, plus, p: False\n"
        "outside = raises(lambda: minkowski.cauchy_lift(unit, (F(0),)))\n"
        "minkowski._int_inside = real_inside\n"
        "real_lift = configspace.cauchy_lift\n"
        "configspace.cauchy_lift = lambda cone, q: MPoint(F(0), (q[0] + F(1, 8),))\n"
        "shifted = raises(lambda: configspace.lift_config(unit, spatial))\n"
        "configspace.cauchy_lift = real_lift\n"
        "configspace.sq_interval = lambda p, q: F(1)\n"
        "inequality = raises(lambda: configspace.project_config(pair))\n"
        "if tilted and outside and shifted and inequality:\n"
        "    sys.exit(3)\n"
        "print(tilted, outside, shifted, inequality)\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(sectorfact.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, env=env, timeout=60
    )
    assert result.returncode == 3, (result.stdout, result.stderr)


# ---------------------------------------------------------------------------
# Reference oracle: the rejection sampler in Fraction arithmetic, as it was
# before the integer frame; the fast sampler must return the same points and
# the same SamplingExhausted outcomes.
# ---------------------------------------------------------------------------


def _reference_grid_point_in_cone(
    cone: DoubleCone, rng: random.Random, denom: int
) -> MPoint | None:
    """One rejection draw from the rational grid inside the cone's box."""
    half = (cone.pplus.t - cone.pminus.t) / 2
    c = cone.center
    t = c.t + _F(rng.randint(-denom, denom), denom) * half
    xs = tuple(
        ci + _F(rng.randint(-denom, denom), denom) * half for ci in c.x
    )
    p = MPoint(t, xs)
    return p if cone_contains(cone, p) else None


def reference_sample_causal_config(
    cone: DoubleCone, m: int, seed: int, denom: int = 64, budget: int = 20000
) -> CausalConfig:
    """Rejection-sample m pairwise causally disjoint points, deterministically
    per seed; the grid denominator doubles (up to 1024) when the budget runs
    out at the current resolution."""
    if m < 0:
        raise PreconditionError("configuration size must be nonnegative")
    rng = random.Random(seed)
    d = denom
    while True:
        points: list[MPoint] = []
        for _ in range(budget):
            if len(points) == m:
                break
            p = _reference_grid_point_in_cone(cone, rng, d)
            if p is None:
                continue
            if all(sq_interval(p, q) > 0 for q in points):
                points.append(p)
        if len(points) == m:
            return CausalConfig(cone=cone, points=tuple(points))
        if d >= 1024:
            raise SamplingExhausted(
                f"could not place {m} causally disjoint points (denominator {d})"
            )
        d *= 2


def _outcome(sampler, *args, **kwargs):
    try:
        return sampler(*args, **kwargs).points
    except SamplingExhausted as exc:
        return f"exhausted: {exc}"


def _same_outcome(cone, m, seed, **kwargs):
    fast = _outcome(sample_causal_config, cone, m, seed, **kwargs)
    assert fast == _outcome(reference_sample_causal_config, cone, m, seed, **kwargs)
    return fast


# tilted cones whose axis.x/axis.t have denominators 3, 7, 5*7 and 2*3
TILTED_CONES = [
    DoubleCone(P(F(-1, 2), F(1, 3)), P(F(5, 2), F(4, 3))),
    DoubleCone(P(-2, 0, 0), P(F(3, 2), F(1, 2), F(-1, 4))),
    DoubleCone(P(0, 1, -1), P(7, F(3, 5), F(2, 7) - 1)),
    DoubleCone(P(F(-7, 3), F(1, 2), 0, F(-5, 4)), P(F(2, 3), F(3, 2), F(-1, 3), F(-1, 4))),
]


def test_sampler_matches_reference_on_tilted_cones():
    for cone in TILTED_CONES:
        slopes = [xi / cone.axis.t for xi in cone.axis.x]
        assert any(s.denominator > 1 for s in slopes)
        for seed in range(6):
            for m in (0, 1, 3, 5):
                points = _same_outcome(cone, m, seed)
                assert len(points) == m


def test_sampler_matches_reference_on_small_budgets(monkeypatch):
    # budgets small enough that the denominator doubles, and cones where no
    # budget suffices: the exhaustion messages must match as well
    denominators = set()
    draw = configspace._grid_point_in_cone

    def recording_draw(frame, rng):
        denominators.add(frame[0])
        return draw(frame, rng)

    monkeypatch.setattr(configspace, "_grid_point_in_cone", recording_draw)
    time_only = DoubleCone(P(-1), P(1))
    tiny = DoubleCone(P(F(-1, 64), 0), P(F(1, 64), 0))
    doubled = exhausted = 0
    for cone, m, denom, budget in [
        (TILTED_CONES[1], 6, 2, 4),
        (TILTED_CONES[2], 5, 1, 3),
        (TILTED_CONES[3], 4, 4, 6),
        (WIDE, 6, 1, 5),
        (tiny, 12, 64, 50),
        (time_only, 2, 64, 40),
        (time_only, 1, 1, 2),
    ]:
        for seed in range(4):
            denominators.clear()
            outcome = _same_outcome(cone, m, seed, denom=denom, budget=budget)
            if isinstance(outcome, str):
                exhausted += 1
                if cone is time_only:
                    # refused before any draw: see the test below
                    assert not denominators
                else:
                    assert max(denominators) == 1024
            else:
                doubled += max(denominators) > denom
    assert doubled and exhausted


def test_sampler_refuses_time_only_cone_without_drawing(monkeypatch):
    # no two points of a 1+0-dimensional cone are spacelike, so m >= 2 is
    # refused at once, with the message the reference reaches after drawing
    # its whole budget at every denominator up to the first one >= 1024
    draws = []
    draw = configspace._grid_point_in_cone

    def counting_draw(frame, rng):
        draws.append(frame[0])
        return draw(frame, rng)

    monkeypatch.setattr(configspace, "_grid_point_in_cone", counting_draw)
    time_only = DoubleCone(P(F(-1, 3)), P(F(5, 2)))
    for m, denom, last in [(2, 64, 1024), (5, 1, 1024), (2, 3, 1536), (3, 2048, 2048)]:
        with pytest.raises(SamplingExhausted) as exc:
            sample_causal_config(time_only, m, seed=m, denom=denom)
        assert str(exc.value) == (
            f"could not place {m} causally disjoint points (denominator {last})"
        )
        assert _outcome(reference_sample_causal_config, time_only, m, 0,
                        denom=denom, budget=5) == f"exhausted: {exc.value}"
    assert draws == []
    # one point still samples
    assert len(sample_causal_config(time_only, 1, seed=0).points) == 1
    assert draws


@st.composite
def cones(draw):
    dim = draw(st.integers(1, 4))
    rational = st.fractions(min_value=-6, max_value=6, max_denominator=12)
    pminus = MPoint(draw(rational), tuple(draw(rational) for _ in range(dim - 1)))
    axis_x = tuple(draw(rational) for _ in range(dim - 1))
    lead = draw(st.fractions(min_value=F(1, 8), max_value=4, max_denominator=9))
    axis_t = sum(abs(v) for v in axis_x) + lead
    pplus = MPoint(pminus.t + axis_t, tuple(a + b for a, b in zip(pminus.x, axis_x)))
    return DoubleCone(pminus, pplus)


@settings(max_examples=60, deadline=None)
@given(
    cones(),
    st.integers(0, 6),
    st.integers(0, 2**32),
    st.sampled_from([1, 2, 8, 64]),
    st.sampled_from([3, 40, 300]),
)
def test_sampler_matches_reference_property(cone, m, seed, denom, budget):
    points = _same_outcome(cone, m, seed, denom=denom, budget=budget)
    if not isinstance(points, str):
        # the constructor and the certificates match their references too
        assert _same_config_results(cone, points)


def test_grid_draw_leaves_the_stream_where_randint_would():
    # each coordinate is drawn as rng.randint(-d, d) draws it (randrange's
    # getrandbits rejection loop), so after every draw the generator is in
    # randint's state, and an accepted draw holds randint's values
    accepted = 0
    for d in sorted({*range(64, 1025, 53), 64, 128, 256, 512, 1024}):
        for seed in range(4):
            for dims in (1, 2, 3, 4):
                frame = (d, 1, (0,) * (dims - 1))  # an upright cone
                fast, slow = random.Random(seed), random.Random(seed)
                for _ in range(25):
                    k = configspace._grid_point_in_cone(frame, fast)
                    drawn = tuple(slow.randint(-d, d) for _ in range(dims))
                    assert fast.getstate() == slow.getstate()
                    assert k is None or k == drawn
                    accepted += k is not None
    assert accepted


def test_sampler_reverifies_grid_points_on_the_tip(monkeypatch):
    # a draw that the grid test wrongly accepts on the future tip (kt = d)
    # is rejected by CausalConfig's exact check on its own integer frame
    monkeypatch.setattr(configspace, "_grid_point_in_cone", lambda frame, rng: (frame[0], 0))
    with pytest.raises(PreconditionError, match="outside the cone"):
        sample_causal_config(WIDE, 1, seed=0)


def test_sampler_reverifies_pairs(monkeypatch):
    # accepting every pair lets timelike pairs through the grid test; the
    # exact pairwise check on CausalConfig's integer frame rejects them
    monkeypatch.setattr(configspace, "_grid_spacelike", lambda k, j: True)
    with pytest.raises(PreconditionError, match="not causally disjoint"):
        sample_causal_config(WIDE, 5, seed=0)


def test_cone_caches_keep_equality_and_hash():
    warm = DoubleCone(P(-2, 0, 0), P(2, 1, F(1, 2)))
    cold = DoubleCone(P(-2, 0, 0), P(2, 1, F(1, 2)))
    assert warm.center == P(0, F(1, 2), F(1, 4))
    assert warm.axis == P(4, 1, F(1, 2))
    assert warm.shadow == project_cone(cold)
    assert {"center", "axis", "shadow"} <= set(vars(warm))
    assert not {"center", "axis", "shadow"} & set(vars(cold))
    assert warm == cold and hash(warm) == hash(cold)
    assert len({warm, cold}) == 1


def test_cauchy_lift_rejects_point_outside_shadow():
    unit = DoubleCone(P(-1, 0), P(1, 0))
    assert cauchy_lift(unit, (F(1, 2),)) == P(0, F(1, 2))
    with pytest.raises(PreconditionError, match="outside the cone shadow"):
        cauchy_lift(unit, (F(1),))
    with pytest.raises(PreconditionError, match="outside the cone shadow"):
        cauchy_lift(TILTED, (F(3), F(3)))


# ---------------------------------------------------------------------------
# Reference oracle: the CausalConfig checks, the Cauchy lift, the segment
# certificate and certify_homotopy in Fraction arithmetic, as they were
# before the integer frame.  The frame must give the same constructor
# outcomes and byte-identical certificate reports.
# ---------------------------------------------------------------------------


def reference_check_config(cone: DoubleCone, points) -> None:
    for p in points:
        if not cone_contains(cone, p):
            raise PreconditionError(f"configuration point {p} outside the cone")
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            if not sq_interval(points[i], points[j]) > 0:
                raise PreconditionError(f"points {i} and {j} are not causally disjoint")


def reference_cauchy_lift(cone: DoubleCone, q) -> MPoint:
    q = tuple(_F(v) for v in q)
    if not cone.shadow.contains(q):
        raise PreconditionError(f"spatial point {q} outside the cone shadow")
    center = cone.center
    axis = cone.axis
    dt = axis.t
    t = center.t + sum((qi - ci) * di for qi, ci, di in zip(q, center.x, axis.x)) / dt
    p = MPoint(t, q)
    if minkowski_inner(p - center, axis) != 0:
        raise PreconditionError("section point is not orthogonal to the tip axis")
    if not cone_contains(cone, p):
        raise PreconditionError("section left the cone")
    return p


def reference_segment_spacelike_data(v: MPoint, w: MPoint) -> dict:
    sv, sw = minkowski_sq(v), minkowski_sq(w)
    if sv <= 0 or sw <= 0:
        raise PreconditionError("both vectors must be spacelike")
    diff = w - v
    a = minkowski_sq(diff)
    bb = 2 * minkowski_inner(v, diff)
    c = sv
    data = {
        "a": format_rational(a),
        "b": format_rational(bb),
        "c": format_rational(c),
        "q0": format_rational(c),
        "q1": format_rational(sw),
    }
    if a <= 0:
        data["vertex"] = None
        data["positive"] = True
        return data
    vertex = _F(-bb, 2 * a)
    data["vertex"] = format_rational(vertex)
    if 0 < vertex < 1:
        vval = c - _F(bb * bb, 4 * a)
        data["vertex_value"] = format_rational(vval)
        data["positive"] = vval > 0
    else:
        data["positive"] = True
    return data


def reference_certify_homotopy(config: CausalConfig) -> CertReport:
    report = CertReport(size=config.size)
    base = {p: reference_cauchy_lift(config.cone, p.x) for p in config.points}
    pts = config.points
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            v = base[pts[i]] - base[pts[j]]
            w = pts[i] - pts[j]
            data = reference_segment_spacelike_data(v, w)
            data["pair"] = [i, j]
            report.pairs.append(data)
            if not data["positive"]:
                report.certified = False
    return report


def _result(run, *args):
    """The value of run(*args), or the message of the PreconditionError it raises."""
    try:
        return run(*args)
    except PreconditionError as exc:
        return f"precondition: {exc}"


def _same_config_results(cone: DoubleCone, points) -> bool:
    """The constructor accepts exactly what the reference accepts, with the
    same message otherwise, and an accepted configuration gets the
    reference's certificate report byte for byte.  Returns acceptance."""
    expected = _result(reference_check_config, cone, points)
    config = _result(CausalConfig, cone, points)
    if isinstance(config, str):
        assert config == expected
        return False
    assert expected is None
    report = dump_json(certify_homotopy(config).to_dict())
    assert report == dump_json(reference_certify_homotopy(config).to_dict())
    return True


def test_certificates_match_reference_on_small_budgets(monkeypatch):
    # budgets small enough that the grid denominator doubles: the sampled
    # points sit on grids of denominator 2 to 1024
    final = set()
    draw = configspace._grid_point_in_cone

    def recording_draw(frame, rng):
        denominators.append(frame[0])
        return draw(frame, rng)

    monkeypatch.setattr(configspace, "_grid_point_in_cone", recording_draw)
    for cone in TILTED_CONES + [WIDE]:
        for m in (2, 3, 4):
            for denom, budget in ((1, 3), (2, 10), (4, 12)):
                for seed in range(3):
                    denominators = []
                    try:
                        config = sample_causal_config(cone, m, seed, denom=denom, budget=budget)
                    except SamplingExhausted:
                        continue
                    final.add(denominators[-1])
                    assert _same_config_results(cone, config.points)
    assert {2, 4, 8, 1024} <= final


# offsets over 3, 5 and 7, so that the frames are tested off the dyadic grid
odd_offsets = st.builds(
    lambda num, den: _F(num, den), st.integers(-12, 12), st.sampled_from([3, 5, 7, 15, 21, 35])
)


@settings(max_examples=80, deadline=None)
@given(
    st.one_of(cones(), st.sampled_from(TILTED_CONES)),
    st.integers(0, 4),
    st.integers(0, 2**16),
    st.sampled_from([3, 5, 7]),
    st.data(),
)
def test_lifted_and_shifted_configs_match_reference(cone, m, seed, denom, data):
    # Cauchy lifts of spatial configurations over 3, 5 and 7, then each
    # point moved in time by a multiple of half the cone's height over 3,
    # 5 or 7: the constructor accepts some and rejects others
    try:
        spatial = sample_spatial_config(cone, m, seed, denom=denom, budget=50)
    except SamplingExhausted:
        return
    lifted = lift_config(cone, spatial)
    assert lifted.points == tuple(reference_cauchy_lift(cone, q) for q in spatial.points)
    assert _same_config_results(cone, lifted.points)
    half = cone.axis.t / 2
    shifted = tuple(
        MPoint(p.t + data.draw(odd_offsets) * half / 4, p.x) for p in lifted.points
    )
    _same_config_results(cone, shifted)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(TILTED_CONES), st.integers(1, 4), st.data())
def test_points_over_odd_denominators_match_reference(cone, m, data):
    # points scattered around the centre of a tilted cone, in and out of the
    # cone and of its shadow: constructor, lift and segment data all agree
    half = cone.axis.t / 2
    points = tuple(
        MPoint(
            cone.center.t + data.draw(odd_offsets) * half / 6,
            tuple(c + data.draw(odd_offsets) * half / 6 for c in cone.center.x),
        )
        for _ in range(m)
    )
    _same_config_results(cone, points)
    for p in points:
        assert _result(cauchy_lift, cone, p.x) == _result(reference_cauchy_lift, cone, p.x)
    for p in points:
        for q in points:
            assert _result(segment_spacelike_data, p, q) == _result(
                reference_segment_spacelike_data, p, q
            )


@settings(max_examples=100, deadline=None)
@given(cones(), st.data())
def test_cauchy_lift_matches_reference(cone, data):
    # spatial points anywhere near the cone, including 1+0 dimensions (q = ())
    rational = st.fractions(min_value=-8, max_value=8, max_denominator=35)
    q = tuple(data.draw(rational) for _ in cone.center.x)
    assert _result(cauchy_lift, cone, q) == _result(reference_cauchy_lift, cone, q)


# -- corruption probes: strictness survives the scaling ---------------------


def test_null_separation_is_rejected():
    cone = TILTED_CONES[0]  # tips (-1/2; 1/3) and (5/2; 4/3)
    on_future_cone = P(F(13, 6), 1)  # the future tip minus (1/3, 1/3)
    on_past_cone = P(F(-1, 6), F(2, 3))  # the past tip plus (1/3, 1/3)
    assert sq_interval(on_future_cone, cone.pplus) == 0
    assert sq_interval(cone.pminus, on_past_cone) == 0
    assert cone_contains(cone, P(2, 1))
    null_pair = (P(F(1, 3), F(1, 7)), P(F(1, 3) + F(2, 5), F(1, 7) + F(2, 5)))
    assert sq_interval(*null_pair) == 0 and all(cone_contains(WIDE, p) for p in null_pair)
    for tip_null in (on_future_cone, on_past_cone):
        with pytest.raises(PreconditionError, match="point .* outside the cone"):
            CausalConfig(cone, (P(2, 1), tip_null))
        assert not _same_config_results(cone, (P(2, 1), tip_null))
    with pytest.raises(PreconditionError, match="points 0 and 1 are not causally disjoint"):
        CausalConfig(WIDE, null_pair)
    assert not _same_config_results(WIDE, null_pair)


def test_segment_certificate_signs():
    # the chord dips into the timelike region: vertex 1/2, value -1/9
    dip = segment_spacelike_data(P(F(1, 3), F(2, 3)), P(F(1, 3), F(-2, 3)))
    assert (dip["vertex"], dip["vertex_value"], dip["positive"]) == ("1/2", "-1/9", False)
    # a < 0 and a = 0: the minimum is at an endpoint, so positive
    concave = segment_spacelike_data(P(0, 2), P(1, 2))
    assert (concave["a"], concave["vertex"], concave["positive"]) == ("-1", None, True)
    flat = segment_spacelike_data(P(F(1, 5), 1), P(F(1, 5), 1))
    assert (flat["a"], flat["vertex"], flat["positive"]) == ("0", None, True)
    # a > 0 with the vertex outside (0, 1), or at 0: positive, and no vertex value
    away = segment_spacelike_data(P(0, 1), P(0, 2))
    assert (away["vertex"], away["positive"]) == ("-1", True)
    at_zero = segment_spacelike_data(P(0, 1, 0), P(0, 1, F(1, 7)))
    assert (at_zero["vertex"], at_zero["positive"]) == ("0", True)
    assert "vertex_value" not in away and "vertex_value" not in at_zero
    for v, w in [
        (P(F(1, 3), F(2, 3)), P(F(1, 3), F(-2, 3))),
        (P(0, 2), P(1, 2)),
        (P(0, 1), P(0, 2)),
        (P(0, 1, 0), P(0, 1, F(1, 7))),
    ]:
        assert segment_spacelike_data(v, w) == reference_segment_spacelike_data(v, w)
    # a null or zero end is not spacelike
    for v, w in [(P(F(1, 3), F(1, 3)), P(0, 1)), (P(0, 1), P(F(2, 5), F(-2, 5))), (P(0, 0), P(0, 1))]:
        with pytest.raises(PreconditionError, match="both vectors must be spacelike"):
            segment_spacelike_data(v, w)


def test_dimension_mismatch_matches_reference():
    bad = ((P(0, 0, 0),), (P(0, 1), P(0, F(-1, 3), 1)))
    for points in bad:
        with pytest.raises(PreconditionError, match="dimension mismatch"):
            CausalConfig(WIDE, points)
        assert not _same_config_results(WIDE, points)
    for run in (cauchy_lift, reference_cauchy_lift):
        assert _result(run, WIDE, (F(1, 3), 0)) == "precondition: dimension mismatch"
    for run in (segment_spacelike_data, reference_segment_spacelike_data):
        assert _result(run, P(0, 1), P(0, 1, 2)) == "precondition: dimension mismatch"


def test_certify_rejects_forged_point_outside_the_cone():
    # a config built around the constructor: the point's lift is the
    # cone's centre, but the homotopy from there to the point leaves the cone
    forged = object.__new__(CausalConfig)
    object.__setattr__(forged, "cone", WIDE)
    object.__setattr__(forged, "points", (P(100, 0),))
    with pytest.raises(PreconditionError, match="section left the cone"):
        certify_homotopy(forged)
