"""Exact Lorentzian geometry of double cones in n-dimensional Minkowski space.

Signature is (-,+,...,+); all coordinates are rationals kept in lowest
terms, so causal predicates, inclusion tests, light-cone intersections and
quadratic positivity certificates are decided exactly.  Light-cone roots
are generally irrational: they are rounded to nearby rationals on the
timelike side and every downstream condition, being a strict inequality,
is re-verified exactly after rounding (with retries at finer resolution).

Integer frames.  Cone membership, spacelike separation, the Cauchy lift's
checks and the segment certificate are signs of forms of degree 1 or 2 in
the coordinates, and a positive rescaling keeps every such sign.  A
`ConeFrame` multiplies the tips and a set of points by the lcm D of all
their denominators and decides these signs on the integer vectors.  For
the lifts it multiplies once more by S = 2*dt, where dt = D*(p+.t - p-.t):
at that scale the centre, dt*(P- + P+), and every lift are integer
vectors.  A certificate value is a quadratic form of such vectors over
the known square (S*D)^2, so it is formatted from those two integers with
one gcd; the vertex -b/(2a) does not depend on the scale at all.

A light-cone hit solves its quadratic on the frame of the segment's ends
and the tip: the coefficients are integers, an exact root is found by an
integer square root, and each rounded candidate and the sign of its
interval to the tip are integers too (`segment_lightcone_hit`).  The
witness builder decides these hits, its ray exits, primed cones
(`_ray_frame`) and twelve invariants (`WitnessDiagram.verify`) on such
frames, and builds Fractions only for the points, cones and trace values
a witness reports.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Sequence

from .reports import PreconditionError, SchemaError, json_list
from .linalg import format_rational, parse_rational

__all__ = [
    "MPoint",
    "DoubleCone",
    "SpatialConvex",
    "WitnessDiagram",
    "NoHit",
    "ExhaustedRetries",
    "LightconeHit",
    "sq_interval",
    "minkowski_sq",
    "minkowski_inner",
    "chron_after",
    "causally_precedes",
    "cone_contains",
    "cone_included",
    "causally_disjoint",
    "in_closure",
    "outside_causal_hull",
    "project_cone",
    "check_projection_inequality",
    "segment_lightcone_hit",
    "build_witness",
    "ConeFrame",
    "cauchy_lift",
    "homotopy_point",
    "certify_segment_spacelike",
    "segment_spacelike_data",
    "point_to_json",
    "point_from_json",
    "cone_to_json",
    "cone_from_json",
]

_F = Fraction


class NoHit(ValueError):
    """The segment does not meet the requested light-cone branch."""


class ExhaustedRetries(RuntimeError):
    """No verified witness diagram found within the retry budget."""


@dataclass(frozen=True)
class MPoint:
    """Point (or difference vector) of M^n: time coordinate and spatial tuple."""

    t: Fraction
    x: tuple[Fraction, ...]

    @staticmethod
    def of(t, *xs) -> "MPoint":
        return MPoint(_F(t), tuple(_F(v) for v in xs))

    @property
    def dim(self) -> int:
        return 1 + len(self.x)

    def __add__(self, other: "MPoint") -> "MPoint":
        self._check(other)
        return MPoint(self.t + other.t, tuple(a + b for a, b in zip(self.x, other.x)))

    def __sub__(self, other: "MPoint") -> "MPoint":
        self._check(other)
        return MPoint(self.t - other.t, tuple(a - b for a, b in zip(self.x, other.x)))

    def scale(self, c) -> "MPoint":
        c = _F(c)
        return MPoint(self.t * c, tuple(v * c for v in self.x))

    def _check(self, other: "MPoint") -> None:
        if len(self.x) != len(other.x):
            raise PreconditionError("dimension mismatch")

    def __str__(self) -> str:
        xs = ";".join(format_rational(v) for v in self.x)
        return f"({format_rational(self.t)};{xs})"


def minkowski_inner(u: MPoint, v: MPoint) -> Fraction:
    u._check(v)
    return -u.t * v.t + sum(a * b for a, b in zip(u.x, v.x))


def minkowski_sq(v: MPoint) -> Fraction:
    return minkowski_inner(v, v)


def sq_interval(p: MPoint, q: MPoint) -> Fraction:
    """Squared Minkowski interval -(dt)^2 + sum (dx_i)^2, exact."""
    return minkowski_sq(q - p)


def chron_after(q: MPoint, p: MPoint) -> bool:
    """q in I+({p}): strictly timelike separated and later."""
    return q.t > p.t and sq_interval(p, q) < 0


def causally_precedes(p: MPoint, q: MPoint) -> bool:
    """p in J-({q}): causal (timelike or null) and not later."""
    return p.t <= q.t and sq_interval(p, q) <= 0


@dataclass(frozen=True)
class DoubleCone:
    """Open region I-({p+}) cap I+({p-}); tips must be chronologically related."""

    pminus: MPoint
    pplus: MPoint

    def __post_init__(self):
        self.pminus._check(self.pplus)
        if not chron_after(self.pplus, self.pminus):
            raise PreconditionError(
                f"future tip {self.pplus} is not chronologically after {self.pminus}"
            )

    @property
    def dim(self) -> int:
        return self.pminus.dim

    # cached in the instance dict (bypassing the frozen __setattr__); equality
    # and hashing stay on the two tips
    @functools.cached_property
    def center(self) -> MPoint:
        return self.pminus + (self.pplus - self.pminus).scale(_F(1, 2))

    @functools.cached_property
    def axis(self) -> MPoint:
        return self.pplus - self.pminus

    def __str__(self) -> str:
        return f"Cone[{self.pminus}..{self.pplus}]"


def cone_contains(cone: DoubleCone, p: MPoint) -> bool:
    return chron_after(cone.pplus, p) and chron_after(p, cone.pminus)


def cone_included(inner: DoubleCone, outer: DoubleCone) -> bool:
    """Tip criterion for subset inclusion of open double cones."""
    return causally_precedes(inner.pplus, outer.pplus) and causally_precedes(
        outer.pminus, inner.pminus
    )


def causally_disjoint(u1: DoubleCone, u2: DoubleCone) -> bool:
    """Tip criterion for J(U1) cap U2 = empty; symmetric by its form."""
    return not chron_after(u2.pplus, u1.pminus) and not chron_after(
        u1.pplus, u2.pminus
    )


def in_closure(cone: DoubleCone, p: MPoint) -> bool:
    """p in cl(U) = J-({p+}) cap J+({p-})."""
    return causally_precedes(p, cone.pplus) and causally_precedes(cone.pminus, p)


def outside_causal_hull(cone: DoubleCone, p: MPoint) -> bool:
    """p outside J(cl U) = J+({p-}) union J-({p+})."""
    in_future = p.t >= cone.pminus.t and sq_interval(cone.pminus, p) <= 0
    in_past = p.t <= cone.pplus.t and sq_interval(p, cone.pplus) <= 0
    return not in_future and not in_past


# ---------------------------------------------------------------------------
# Spatial shadows
# ---------------------------------------------------------------------------


def _euclid_sq(x: tuple[Fraction, ...], y: tuple[Fraction, ...]) -> Fraction:
    if len(x) != len(y):
        raise PreconditionError("dimension mismatch")
    return sum((a - b) ** 2 for a, b in zip(x, y))


def _sqrt_sum_lt(a2: Fraction, b2: Fraction, c: Fraction) -> bool:
    """sqrt(a2) + sqrt(b2) < c decided exactly by staged squaring."""
    if c <= 0:
        return False
    rhs = c * c - a2 - b2
    if rhs <= 0:
        return False
    return 4 * a2 * b2 < rhs * rhs


@dataclass(frozen=True)
class SpatialConvex:
    """The spatial shadow of a double cone (`project_cone`): the convex open
    region {x : |x - focus_plus| + |x - focus_minus| < length}, with a
    marked interior point.
    """

    marked: tuple[Fraction, ...]
    focus_minus: tuple[Fraction, ...]
    focus_plus: tuple[Fraction, ...]
    length: Fraction

    def __post_init__(self):
        if not self.length ** 2 > _euclid_sq(self.focus_plus, self.focus_minus):
            raise PreconditionError("shadow is empty: length too small for foci")
        if not self.contains(self.marked):
            raise PreconditionError("marked point lies outside the region")

    def contains(self, x: Sequence[Fraction]) -> bool:
        x = tuple(_F(v) for v in x)
        return _sqrt_sum_lt(
            _euclid_sq(x, self.focus_plus),
            _euclid_sq(x, self.focus_minus),
            self.length,
        )

    def to_json(self) -> dict:
        return {
            "kind": "shadow",
            "marked": [format_rational(v) for v in self.marked],
            "focus_minus": [format_rational(v) for v in self.focus_minus],
            "focus_plus": [format_rational(v) for v in self.focus_plus],
            "length": format_rational(self.length),
        }


def project_cone(cone: DoubleCone) -> SpatialConvex:
    """Spatial image of a double cone: the open region where the two foci
    (tip projections) are jointly closer than the cone height; the marked
    point is the projected center."""
    xm, xp = cone.pminus.x, cone.pplus.x
    return SpatialConvex(
        marked=tuple((a + b) / 2 for a, b in zip(xm, xp)),
        focus_minus=xm,
        focus_plus=xp,
        length=cone.pplus.t - cone.pminus.t,
    )


def check_projection_inequality(p: MPoint, q: MPoint) -> bool:
    """sq_interval(p,q) <= squared Euclidean distance of the projections."""
    return sq_interval(p, q) <= _euclid_sq(p.x, q.x)


# ---------------------------------------------------------------------------
# Light-cone intersections
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LightconeHit:
    point: MPoint
    s: Fraction
    exact: bool
    certificate: dict


def segment_lightcone_hit(
    a: MPoint,
    b: MPoint,
    tip: MPoint,
    branch: str = "future",
    denom_log2: int = 16,
) -> LightconeHit:
    """Intersection of the segment a->b with the light cone of `tip`.

    The intersection parameter solves an exact rational quadratic; branch
    "future" selects the larger root, "past" the smaller.  When the root is
    irrational the returned point is a nearby rational on the timelike side
    of the cone (sq_interval to the tip strictly negative), certified in
    the result; all strict inequalities downstream survive this rounding.

    Decided on the integer frame of a, b and tip (scale D): with e = b - a
    and d = a - tip as integer vectors, A, B, C of the quadratic
    A s^2 + 2B s + C are D^2 times the rational ones and disc = B^2 - AC is
    D^4 times, so an exact root (-B +- sqrt(disc))/A is the same at either
    scale.  Otherwise isq/2^k, isq = isqrt(disc*4^k // D^4), is the dyadic
    lower bound of the rational sqrt(disc/D^4) at resolution 2^-k;
    candidate j is s = n/m with n = -B*2^k + sign*(isq - j)*D^2 and
    m = A*2^k, and its interval to the tip is A n^2 + 2B n m + C m^2 over
    m^2 D^2."""
    if branch not in ("future", "past"):
        raise PreconditionError("branch must be 'future' or 'past'")
    if not len(a.x) == len(b.x) == len(tip.x):
        raise PreconditionError("dimension mismatch")
    D, (ra, rb, rt) = _integer_rows((a, b, tip))
    e = [q - p for p, q in zip(ra, rb)]
    d = [p - q for p, q in zip(ra, rt)]
    A = _int_inner(e, e)
    if A <= 0:
        raise PreconditionError("segment direction must be spacelike")
    B = _int_inner(d, e)
    C = _int_inner(d, d)
    disc = B * B - A * C
    if disc < 0:
        raise NoHit("segment misses the light cone: negative discriminant")
    sign = 1 if branch == "future" else -1
    root = math.isqrt(disc)
    if root * root == disc:
        n = -B + sign * root
        if not (0 <= n <= A):
            raise NoHit(f"root {_F(n, A)} outside the segment")
        # an exact root: the interval to the tip is 0
        return LightconeHit(
            point=_frame_point(ra, e, n, A, D),
            s=_F(n, A),
            exact=True,
            certificate={"exact": True, "sq_to_tip": "0"},
        )
    # irrational root: rational approximation on the timelike side (q < 0)
    D2 = D * D
    for k in (denom_log2, denom_log2 + 8, denom_log2 + 16, denom_log2 + 32):
        isq = math.isqrt((disc << (2 * k)) // (D2 * D2))
        m = A << k
        for j in range(4):
            n = -(B << k) + sign * (isq - j) * D2
            if not (0 < n < m):
                continue
            q = A * n * n + 2 * B * n * m + C * m * m
            if q < 0:
                return LightconeHit(
                    point=_frame_point(ra, e, n, m, D),
                    s=_F(n, m),
                    exact=False,
                    certificate={
                        "exact": False,
                        "sq_to_tip": _format_ratio(q, m * m * D2),
                        "side": "timelike",
                        "denominator_log2": k,
                    },
                )
    raise NoHit("could not certify a timelike-side rational approximation")


def _frame_point(base: Sequence[int], e: Sequence[int], n: int, m: int, scale: int) -> MPoint:
    """The point base + (n/m)*e of a frame of scale D, as rationals."""
    den = m * scale
    t, *x = (_F(p * m + n * q, den) for p, q in zip(base, e))
    return MPoint(t, tuple(x))


# ---------------------------------------------------------------------------
# Witness construction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WitnessDiagram:
    """Regions witnessing the extension property for a causally disjoint
    pair inside a containing cone, with exact per-invariant verdicts:
    `build_witness` keeps the `verify` dict it accepted as `invariants`."""

    V1: DoubleCone
    V2: DoubleCone
    W: DoubleCone
    U1p: DoubleCone
    U2p: DoubleCone
    trace: dict = field(default_factory=dict, compare=False)
    invariants: dict = field(default_factory=dict, compare=False)

    def verify(
        self, u1: DoubleCone, u2: DoubleCone, utilde: DoubleCone
    ) -> dict[str, bool]:
        """The twelve invariants, decided on the integer frame of the 16 tips."""
        cones = (u1, u2, utilde, self.V1, self.V2, self.W, self.U1p, self.U2p)
        _, rows = _integer_rows([t for c in cones for t in (c.pminus, c.pplus)])
        if len({len(row) for row in rows}) != 1:
            raise PreconditionError("dimension mismatch")
        U1, U2, Ut, V1, V2, W, U1p, U2p = zip(rows[::2], rows[1::2])
        return {
            "U1_in_V1": _int_included(U1, V1),
            "U2_in_V2": _int_included(U2, V2),
            "Ut_in_W": _int_included(Ut, W),
            "V1_in_W": _int_included(V1, W),
            "V2_in_W": _int_included(V2, W),
            "V1_perp_V2": _int_disjoint(V1, V2),
            "U1p_in_V1": _int_included(U1p, V1),
            "U2p_in_V2": _int_included(U2p, V2),
            "U1p_perp_Ut": _int_disjoint(U1p, Ut),
            "U2p_perp_Ut": _int_disjoint(U2p, Ut),
            # implied by the above on disjointness models; checked defensively
            "U1p_perp_U1": _int_disjoint(U1p, U1),
            "U2p_perp_U2": _int_disjoint(U2p, U2),
        }

    def to_json(self) -> dict:
        doc = {
            "V1": cone_to_json(self.V1),
            "V2": cone_to_json(self.V2),
            "W": cone_to_json(self.W),
            "U1p": cone_to_json(self.U1p),
            "U2p": cone_to_json(self.U2p),
        }
        if self.invariants:
            doc["invariants"] = self.invariants
        if self.trace:
            doc["trace"] = self.trace
        return doc


def _ray_frame(cones, base: MPoint, direction: MPoint, log2: int, extra: int = 0):
    """The ray base + (n/2^log2)*direction, whose integer n hold every ray
    exit's doublings and midpoints, and the tips of `cones`, times
    2^(log2 + extra)*D for D the lcm of every denominator: returns n -> B + n*E
    and each cone as a (minus, plus) pair of integer tuples."""
    tips = (t for c in cones for t in (c.pminus, c.pplus))
    _, (b, e, *rows) = _integer_rows((base, direction, *tips))
    shift = log2 + extra
    b, *rows = ([v << shift for v in row] for row in (b, *rows))
    e = [v << extra for v in e]
    return (lambda n: [x + n * y for x, y in zip(b, e)]), list(zip(rows[::2], rows[1::2]))


def _ray_exit(at, exited, one: int, doublings: int) -> int | None:
    """Doubling from n = one until exited(at(n)), then bisection (the
    bracket width is a power of two) down to the n that has exited while
    n - 1 has not; None if n = one << doublings has not exited."""
    lo, hi = 0, one
    while not exited(at(hi)):
        if hi >= one << doublings:
            return None
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if exited(at(mid)):
            hi = mid
        else:
            lo = mid
    return hi


def build_witness(
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
                diagram = _attempt_witness(u1, u2, utilde, a, b, k, push)
            except (NoHit, PreconditionError, ExhaustedRetries) as exc:
                failures.append(f"round {round_idx} push {push}: {exc}")
                continue
            if diagram is None:
                failures.append(
                    f"round {round_idx} push {push}: construction fell outside a region"
                )
                continue
            checks = diagram.verify(u1, u2, utilde)
            if all(checks.values()):
                return replace(diagram, invariants=checks)
            bad = [kk for kk, v in checks.items() if not v]
            failures.append(f"round {round_idx} push {push}: failed invariants {bad}")
    raise ExhaustedRetries(
        "no verified witness within the retry budget: " + "; ".join(failures[-6:])
    )


def _attempt_witness(u1, u2, utilde, a, b, k, push=0) -> WitnessDiagram | None:
    trace: dict = {"denominator_log2": k, "push": push}
    scale_time = (utilde.pplus.t - utilde.pminus.t) / 4
    tips = (u1.pplus, u1.pminus, u2.pplus, u2.pminus)
    hits = [
        segment_lightcone_hit(a, b, tip, branch=branch, denom_log2=k)
        for tip, branch in zip(tips, ("future", "future", "past", "past"))
    ]

    # the push direction tip - hit must be future/past causal.  The hit makes
    # it causal (an exact hit is null to its tip, a rounded one lies on the
    # timelike side), so only its orientation is tested; displacing a tip
    # along its own causal direction only enlarges the cone
    for hit, tip, future in zip(hits, tips, (True, False, True, False)):
        if not (tip.t > hit.point.t if future else tip.t < hit.point.t):
            return None

    def pushed_tip(hit: LightconeHit, tip: MPoint, label: str) -> MPoint:
        direction = tip - hit.point  # timelike after rounding; exact null when exact
        # the smallest multiple of 2^-k along tip + s*direction outside cl(Utilde);
        # the ray starts inside, so the exit is a single crossing
        at, ((minus, plus),) = _ray_frame((utilde,), tip, direction, k)
        n = _ray_exit(at, lambda p: not (_int_precedes(p, plus) and _int_precedes(minus, p)),
                      1 << k, 64)
        if n is None:
            raise ExhaustedRetries("ray never exits the closure")
        lam = _F(n, 1 << k)
        if push:
            lam = lam + push * scale_time / abs(direction.t)
        trace[label] = format_rational(1 + lam)  # parameter along the half-line
        return tip + direction.scale(lam)

    labels = ("exit_H1_plus", "exit_H1_minus", "exit_H2_plus", "exit_H2_minus")
    l1p, l1m, l2p, l2m = map(pushed_tip, hits, tips, labels)
    v1 = DoubleCone(l1m, l1p)
    v2 = DoubleCone(l2m, l2p)

    # enclosing cone around Utilde, V1, V2 via a 1-norm time bound
    cones = (utilde, v1, v2)
    cx = utilde.center.x

    def reach(tip: MPoint) -> Fraction:
        return sum(abs(xi - ci) for xi, ci in zip(tip.x, cx))

    tp = max(c.pplus.t + reach(c.pplus) for c in cones) + 1
    tm = min(c.pminus.t - reach(c.pminus) for c in cones) - 1
    w = DoubleCone(MPoint(tm, cx), MPoint(tp, cx))

    # primed regions: walk from each V_i center away from the other cone,
    # leave the causal hull of Utilde, then shrink an upright cone into place
    def primed(vi: DoubleCone, own: DoubleCone, other: DoubleCone, label: str):
        base = vi.center
        d_main = tuple(p - q for p, q in zip(own.center.x, other.center.x))
        d_alt = tuple(p - q for p, q in zip(base.x, utilde.center.x))
        for d in (d for d in (d_main, d_alt) if any(d)):
            ray = MPoint(_F(0), d)
            # the first multiple of 2^-(k+3) outside J(cl Utilde); the half-height
            # eps runs from height/2^3 to height/2^30, an integer 30 bits finer
            at, (ut, v) = _ray_frame((utilde, vi), base, ray, k + 3, extra=30)

            def outside(p) -> bool:
                return not _int_precedes(ut[0], p) and not _int_precedes(p, ut[1])

            n0 = _ray_exit(at, outside, 1 << (k + 3), 48)
            if n0 is None:
                continue
            for n in range(n0, n0 + 4):  # scan slightly past the hull boundary
                t, *x = p = at(n)
                if not _int_inside(v[0], v[1], p) or not outside(p):
                    continue
                eps = (v[1][0] - v[0][0]) >> 3
                for halving in range(28):
                    cand = ((t - eps, *x), (t + eps, *x))
                    if _int_included(cand, v) and _int_disjoint(cand, ut):
                        r = _F(n, 1 << (k + 3))
                        xi = base + ray.scale(r)
                        up = MPoint((vi.pplus.t - vi.pminus.t) / (8 << halving), (_F(0),) * len(d))
                        trace[label] = format_rational(r)
                        return DoubleCone(xi - up, xi + up)
                    eps >>= 1
        return None

    u1p = primed(v1, u1, u2, "primed_1_offset")
    u2p = None if u1p is None else primed(v2, u2, u1, "primed_2_offset")
    if u2p is None:
        return None
    return WitnessDiagram(V1=v1, V2=v2, W=w, U1p=u1p, U2p=u2p, trace=trace)


# ---------------------------------------------------------------------------
# Cauchy surface, section, homotopy
# ---------------------------------------------------------------------------


def _integer_rows(points: Sequence[MPoint]) -> tuple[int, list[tuple[int, ...]]]:
    """The lcm D of the denominators of every coordinate of `points`, and
    each point times D as an integer tuple (t, x1, ...)."""
    rows = [(p.t, *p.x) for p in points]
    scale = math.lcm(*(v.denominator for row in rows for v in row))
    return scale, [tuple(v.numerator * (scale // v.denominator) for v in row) for row in rows]


def _format_ratio(n: int, d: int) -> str:
    """`format_rational(Fraction(n, d))` for d > 0, with one gcd."""
    g = math.gcd(n, d)
    if g == d:
        return str(n // d)
    return f"{n // g}/{d // g}"


def _int_inner(u: Sequence[int], v: Sequence[int]) -> int:
    """Minkowski inner product of integer tuples (t, x1, ...)."""
    return sum(map(operator.mul, u, v)) - 2 * u[0] * v[0]


def _int_interval(p: Sequence[int], q: Sequence[int]) -> int:
    d = [a - b for a, b in zip(p, q)]
    return _int_inner(d, d)


def _int_precedes(p: Sequence[int], q: Sequence[int]) -> bool:
    """`causally_precedes` for integer tuples of one scale."""
    return p[0] <= q[0] and _int_interval(p, q) <= 0


def _int_chron_after(q: Sequence[int], p: Sequence[int]) -> bool:
    """`chron_after` for integer tuples of one scale."""
    return q[0] > p[0] and _int_interval(p, q) < 0


def _int_inside(minus: Sequence[int], plus: Sequence[int], p: Sequence[int]) -> bool:
    """`cone_contains` for integer tips and an integer point of one scale."""
    return _int_chron_after(plus, p) and _int_chron_after(p, minus)


def _int_included(inner, outer) -> bool:
    """`cone_included` for cones given as (minus, plus) integer tuples of one scale."""
    return _int_precedes(inner[1], outer[1]) and _int_precedes(outer[0], inner[0])


def _int_disjoint(u1, u2) -> bool:
    """`causally_disjoint` for cones given as (minus, plus) integer tuples of one scale."""
    return not _int_chron_after(u2[1], u1[0]) and not _int_chron_after(u1[1], u2[0])


class ConeFrame:
    """A double cone and points of its space, all scaled to integers.

    `scale` is the lcm D of the denominators of every tip and point
    coordinate; `minus`, `plus` and `rows` are D*p-, D*p+ and D*p for each
    point p, and `height` is dt = D*(p+.t - p-.t) > 0.  Lifts live at the
    finer scale 2*dt*D (see the module docstring)."""

    def __init__(self, cone: DoubleCone, points: Sequence[MPoint]):
        self.points = points
        self.scale, rows = _integer_rows((cone.pminus, cone.pplus, *points))
        self.minus, self.plus = rows[0], rows[1]
        self.rows = rows[2:]
        self.height = self.plus[0] - self.minus[0]

    def contains(self, i: int) -> bool:
        """Point i lies in the open cone."""
        row = self.rows[i]
        if len(row) != len(self.minus):
            raise PreconditionError("dimension mismatch")
        return _int_inside(self.minus, self.plus, row)

    def spacelike(self, i: int, j: int) -> bool:
        """Points i and j are spacelike separated."""
        return _int_interval(self.rows[i], self.rows[j]) > 0

    def lifts(self) -> list[tuple[int, ...]]:
        """`cauchy_lift` of every point's spatial part, as integer vectors at
        scale 2*dt*D, each checked as `cauchy_lift` documents.

        With Q = D*q, the lift's time times 2*dt*D is
        dt*(P-.t + P+.t) + sum_i (2*Q_i - P-_i - P+_i)*(P+_i - P-_i)."""
        minus, plus, dt = self.minus, self.plus, self.height
        s = 2 * dt
        centre = [dt * (a + b) for a, b in zip(minus, plus)]
        axis = [b - a for a, b in zip(minus, plus)]
        low, high = [s * a for a in minus], [s * b for b in plus]
        xm, xp = minus[1:], plus[1:]
        out = []
        for p, row in zip(self.points, self.rows):
            q = row[1:]
            if len(q) != len(xm):
                raise PreconditionError("dimension mismatch")
            to_plus = sum((a - b) ** 2 for a, b in zip(q, xp))
            to_minus = sum((a - b) ** 2 for a, b in zip(q, xm))
            if not _sqrt_sum_lt(to_plus, to_minus, dt):
                shown = tuple(_F(v) for v in p.x)
                raise PreconditionError(f"spatial point {shown} outside the cone shadow")
            t = centre[0] + sum((2 * a - b - c) * (c - b) for a, b, c in zip(q, xm, xp))
            lifted = (t, *(s * a for a in q))
            if _int_inner([a - b for a, b in zip(lifted, centre)], axis) != 0:
                raise PreconditionError("section point is not orthogonal to the tip axis")
            if not _int_inside(low, high, lifted):
                raise PreconditionError("section left the cone")
            out.append(lifted)
        return out


def cauchy_lift(cone: DoubleCone, q: Sequence[Fraction]) -> MPoint:
    """The unique point of the canonical Cauchy surface over the spatial
    point q: Minkowski-orthogonal to the tip axis through the center.

    Raises PreconditionError when q lies outside the cone's shadow, or when
    the lifted point is not orthogonal to the axis or not in the cone; all
    three checks run on the integer frame of the module docstring."""
    q = tuple(_F(v) for v in q)
    frame = ConeFrame(cone, (MPoint(_F(0), q),))
    (lifted,) = frame.lifts()
    return MPoint(_F(lifted[0], 2 * frame.height * frame.scale), q)


def homotopy_point(cone: DoubleCone, p: MPoint, s) -> MPoint:
    """Straight-line homotopy between the Cauchy projection (s=0) and p (s=1)."""
    s = _F(s)
    if not 0 <= s <= 1:
        raise PreconditionError("homotopy parameter must lie in [0,1]")
    if not cone_contains(cone, p):
        raise PreconditionError("point outside the cone")
    base = cauchy_lift(cone, p.x)
    return base + (p - base).scale(s)


def _segment_certificate(v: Sequence[int], w: Sequence[int], denom: int) -> dict:
    """`segment_spacelike_data` for the vectors v/m and w/m, given as
    integer tuples v, w and denom = m*m.

    ||(1-s)v + s w||^2 = a s^2 + b s + c with a, b, c quadratic forms of
    v, w over denom; signs and the vertex -b/(2a) are decided on the
    integers, and the vertex value is (4ac - b^2)/(4a*denom)."""
    c, q1 = _int_inner(v, v), _int_inner(w, w)
    if c <= 0 or q1 <= 0:
        raise PreconditionError("both vectors must be spacelike")
    if len(v) != len(w):
        raise PreconditionError("dimension mismatch")
    diff = [b - a for a, b in zip(v, w)]
    a = _int_inner(diff, diff)
    b = 2 * _int_inner(v, diff)
    shown_c = _format_ratio(c, denom)
    data = {
        "a": _format_ratio(a, denom),
        "b": _format_ratio(b, denom),
        "c": shown_c,
        "q0": shown_c,
        "q1": _format_ratio(q1, denom),
    }
    if a <= 0:
        # concave or linear: minimum at the endpoints, both positive
        data["vertex"] = None
        data["positive"] = True
        return data
    data["vertex"] = _format_ratio(-b, 2 * a)
    if 0 < -b < 2 * a:
        gap = 4 * a * c - b * b
        data["vertex_value"] = _format_ratio(gap, 4 * a * denom)
        data["positive"] = gap > 0
    else:
        data["positive"] = True
    return data


def segment_spacelike_data(v: MPoint, w: MPoint) -> dict:
    """Quadratic data for ||(1-s)v + s w||^2 on [0,1] and the exact verdict,
    decided on v and w times their common denominator."""
    scale, (vi, wi) = _integer_rows((v, w))
    return _segment_certificate(vi, wi, scale * scale)


def certify_segment_spacelike(v: MPoint, w: MPoint) -> bool:
    """Exactly decide ||(1-s)v + s w||^2 > 0 for all s in [0,1]."""
    return segment_spacelike_data(v, w)["positive"]


# ---------------------------------------------------------------------------
# JSON interchange: rationals as "p/q" strings
# ---------------------------------------------------------------------------


def point_to_json(p: MPoint) -> dict:
    return {"t": format_rational(p.t), "x": [format_rational(v) for v in p.x]}


def point_from_json(doc: dict) -> MPoint:
    try:
        xs = json_list(doc["x"], "spatial coordinates x")
        return MPoint(parse_rational(doc["t"]), tuple(parse_rational(v) for v in xs))
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"malformed point document: {exc}") from exc


def cone_to_json(cone: DoubleCone) -> dict:
    return {"pminus": point_to_json(cone.pminus), "pplus": point_to_json(cone.pplus)}


def cone_from_json(doc: dict) -> DoubleCone:
    try:
        return DoubleCone(point_from_json(doc["pminus"]), point_from_json(doc["pplus"]))
    except (KeyError, TypeError, ValueError) as exc:
        # PreconditionError (invalid tips) is a ValueError: bad files exit as schema problems
        raise SchemaError(f"malformed cone document: {exc}") from exc
