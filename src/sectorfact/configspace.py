"""Configuration spaces of (causally) disjoint points in double cones.

Configurations live inside a fixed double cone with pairwise spacelike
points.  Each point's spatial projection is lifted back onto the cone's
Cauchy surface (`minkowski.cauchy_lift`, exact), and the straight-line
homotopy between a configuration and its surface lift is certified
spacelike for all intermediate times by exact quadratic sign analysis
(not sampling).

The causal sampler draws grid points center + (half/d)*k with k an integer
vector in [-d, d]^n.  Each coordinate of k is the value and the stream of
`rng.randint(-d, d)`, drawn by randint's own getrandbits rejection loop
without its call layers.  Both of its tests (inside the cone, spacelike to every
accepted point) are signs of squared intervals, which a positive rescaling
keeps, so they run on k in an integer frame: scaled by d/half, and by the
common denominator L of axis.x/axis.t, the tips sit at the integer vectors
±L*d*axis/axis.t.  Rationals are built only for the accepted points, and
the CausalConfig constructor re-verifies every point and pair exactly.

The constructor and `certify_homotopy` decide on the `ConeFrame` of the
cone and the configuration's rational points (see `minkowski`): every
coordinate times the lcm D of their denominators, and the Cauchy lifts at
the scale 2*dt*D at which they are integer vectors.  Membership and
spacelikeness are signs, which the positive scale keeps; each certificate
value is an integer over the square of the lift scale, formatted in lowest
terms with one gcd, so the reports are those of exact rational arithmetic.
"""

from __future__ import annotations

import math
import random
from dataclasses import asdict, dataclass, field
from fractions import Fraction

from .minkowski import (
    ConeFrame,
    DoubleCone,
    MPoint,
    cone_to_json,
    point_to_json,
    _segment_certificate,
)
from .reports import PreconditionError

__all__ = [
    "CausalConfig",
    "SamplingExhausted",
    "sample_causal_config",
    "certify_homotopy",
    "CertReport",
]

_F = Fraction


class SamplingExhausted(RuntimeError):
    """Rejection sampling hit its budget before filling the configuration."""


@dataclass(frozen=True)
class CausalConfig:
    """Tuple of pairwise causally disjoint points in a double cone."""

    cone: DoubleCone
    points: tuple[MPoint, ...]

    def __post_init__(self):
        frame = ConeFrame(self.cone, self.points)
        for i, p in enumerate(self.points):
            if not frame.contains(i):
                raise PreconditionError(f"configuration point {p} outside the cone")
        for i in range(len(self.points)):
            for j in range(i + 1, len(self.points)):
                if not frame.spacelike(i, j):
                    raise PreconditionError(
                        f"points {i} and {j} are not causally disjoint"
                    )

    @property
    def size(self) -> int:
        return len(self.points)

    def to_json(self) -> dict:
        return {
            "cone": cone_to_json(self.cone),
            "points": [point_to_json(p) for p in self.points],
        }


def _grid_point_in_cone(
    frame: tuple[int, int, tuple[int, ...]], rng: random.Random
) -> tuple[int, ...] | None:
    """One rejection draw from the grid inside the cone's box.

    `frame` is (d, L, tip): the grid denominator, the common denominator of
    axis.x/axis.t and the spatial part of the future tip, L*d*axis.x/axis.t.
    Returns the integer vector k = (kt, k1, ...) of a point strictly inside
    the cone, or None.

    Each coordinate is drawn as `rng.randint(-d, d)` draws it: randrange
    takes getrandbits(k) for k = (2d+1).bit_length() until it is below 2d+1
    and adds -d, so the stream and the draws are those of randint."""
    d, scale, tip = frame
    width = 2 * d + 1
    bits = width.bit_length()
    getrandbits = rng.getrandbits
    draws = []
    for _ in range(1 + len(tip)):
        r = getrandbits(bits)
        while r >= width:
            r = getrandbits(bits)
        draws.append(r - d)
    kt = draws[0]
    # time gaps to the tips; |kt| <= d keeps them >= 0, so the strict
    # interval tests below also decide that both gaps are positive
    future, past = scale * (d - kt), scale * (d + kt)
    to_future = to_past = 0
    for ki, ti in zip(draws[1:], tip):
        lk = scale * ki
        to_future += (ti - lk) ** 2
        to_past += (ti + lk) ** 2
    if to_future < future * future and to_past < past * past:
        return tuple(draws)
    return None


def _grid_spacelike(k: tuple[int, ...], j: tuple[int, ...]) -> bool:
    """Squared interval between two grid vectors of one frame is positive."""
    total = -((k[0] - j[0]) ** 2)
    for a, b in zip(k[1:], j[1:]):
        total += (a - b) ** 2
    return total > 0


def sample_causal_config(
    cone: DoubleCone, m: int, seed: int, denom: int = 64, budget: int = 20000
) -> CausalConfig:
    """Rejection-sample m pairwise causally disjoint points, deterministically
    per seed; the grid denominator doubles (up to 1024) when the budget runs
    out at the current resolution.

    Each draw is center + (half/d)*k for an integer vector k in [-d, d]^n
    (one `rng.randint(-d, d)` for t, then one per spatial coordinate, drawn
    as `_grid_point_in_cone` says).  Cone
    membership and pairwise spacelikeness are decided on k in the integer
    frame of the module docstring; the accepted points are then built as
    rationals and re-verified exactly by the CausalConfig constructor."""
    if m < 0:
        raise PreconditionError("configuration size must be nonnegative")
    if m >= 2 and cone.dim == 1:
        # no two points of a 1+0-dimensional cone are spacelike; refuse with
        # the message the draws would end in, at the last denominator
        d = denom
        while d < 1024:
            d *= 2
        raise SamplingExhausted(
            f"could not place {m} causally disjoint points (denominator {d})"
        )
    rng = random.Random(seed)
    c, axis = cone.center, cone.axis
    slopes = [xi / axis.t for xi in axis.x]
    scale = math.lcm(*(s.denominator for s in slopes))
    lifted = [int(s * scale) for s in slopes]
    d = denom
    while True:
        frame = (d, scale, tuple(d * a for a in lifted))
        accepted: list[tuple[int, ...]] = []
        for _ in range(budget):
            if len(accepted) == m:
                break
            k = _grid_point_in_cone(frame, rng)
            if k is None:
                continue
            if all(_grid_spacelike(k, j) for j in accepted):
                accepted.append(k)
        if len(accepted) == m:
            step = axis.t / (2 * d)  # half the cone's height over d
            # the coordinate p/q + k*r/s is (p*s + k*r*q)/(q*s): one Fraction each
            r, s = step.numerator, step.denominator
            rows = [(v.numerator * s, r * v.denominator, v.denominator * s) for v in (c.t, *c.x)]
            points = []
            for k in accepted:
                t, *x = (_F(p + ki * rq, den) for ki, (p, rq, den) in zip(k, rows))
                points.append(MPoint(t, tuple(x)))
            return CausalConfig(cone=cone, points=tuple(points))
        if d >= 1024:
            raise SamplingExhausted(
                f"could not place {m} causally disjoint points (denominator {d})"
            )
        d *= 2


@dataclass
class CertReport:
    """Per-pair exact certificates that the projection homotopy stays inside
    the configuration space for every intermediate parameter."""

    certified: bool = True
    size: int = 0
    pairs: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {"check": "homotopy-certification", **asdict(self)}


def certify_homotopy(config: CausalConfig) -> CertReport:
    """For every pair i<j certify that (1-s)*(surface difference) + s*(original
    difference) is spacelike for all s in [0,1], by exact quadratic analysis
    on the configuration's integer frame."""
    report = CertReport(size=config.size)
    frame = ConeFrame(config.cone, config.points)
    lifts = frame.lifts()
    # the straight line from a lift to its point stays in the convex cone
    # when both ends do; the lifts are checked, and so are the points, which
    # the constructor has verified unless the config was built around it
    for i, p in enumerate(config.points):
        if not frame.contains(i):
            raise PreconditionError(
                f"homotopy section left the cone: configuration point {p} outside it"
            )
    s = 2 * frame.height
    denom = (s * frame.scale) ** 2
    pts = [tuple(s * v for v in row) for row in frame.rows]
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            v = [a - b for a, b in zip(lifts[i], lifts[j])]
            w = [a - b for a, b in zip(pts[i], pts[j])]
            data = _segment_certificate(v, w, denom)
            data["pair"] = [i, j]
            report.pairs.append(data)
            if not data["positive"]:
                report.certified = False
    return report
