"""Traced run: per-layer counters and spans taken from outside the program.

`Tracer.install()` wraps public functions and methods of the `sectorfact`
modules.  A function is patched in every module namespace that binds it
(for example `cli.certify_homotopy` as well as `configspace.certify_homotopy`),
and a method is patched on its class.  Hot calls keep aggregate call counts
and self time, computed with a call stack: a wrapped call's self time is
its duration minus the time spent in wrapped calls beneath it.  Coarse
calls also record spans (name, start, end, parent span, campaign span).

The scalar kernels called millions of times per campaign
(`OrthCategory.compose`/`is_orth`, `GaussianRational` arithmetic) are not
wrapped; their cost shows in their callers' self time.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

from sectorfact import cli, configspace, fixtures, linalg, minkowski, operad, orthcat, reports, sectors

# (owner, attribute, metric key); owners are modules or classes
TIMED = [
    (linalg.GMat, "__matmul__", "linalg.matmul"),
    (linalg.GMat, "hs_inner", "linalg.hs_inner"),
    (linalg, "nullspace", "linalg.nullspace"),
    (linalg, "pauli_string", "linalg.pauli"),
    (linalg, "as_pauli_string", "linalg.pauli"),
    (sectors, "pfa_structure_map", "sectors.pfa_structure_map"),
    (sectors, "diamond", "sectors.diamond"),
    (sectors.LocalizedEndo, "same_map", "sectors.same_map"),
    (sectors.LocalizedEndo, "apply", "sectors.apply"),
    (sectors, "check_localized", "sectors.check_localized"),
    (sectors, "_commutant_of", "sectors.commutant"),
    (sectors, "g_act_sector", "sectors.g_act_sector"),
    (sectors, "find_covariance", "sectors.find_covariance"),
    (operad, "compose", "operad.compose"),
    (operad, "enumerate_all_operations", "operad.enumerate"),
    (operad, "enumerate_operations", "operad.enumerate"),
    (minkowski, "segment_lightcone_hit", "minkowski.lightcone_hit"),
    (cli, "_load_json", "fixtures.load"),
    (fixtures, "net_from_json", "fixtures.load"),
    (orthcat, "category_from_json", "fixtures.load"),
    (orthcat, "action_from_json", "fixtures.load"),
    (minkowski, "cone_from_json", "fixtures.load"),
    (cli, "main", "cli"),
]

# coarse calls: timed, and each call also recorded as a span
SPANNED = [
    (operad, "validate_operad", "operad.validate"),
    (operad, "validate_algebra", "operad.validate"),
    (operad, "validate_equivariant_algebra", "operad.validate"),
    (sectors, "validate_theorem_3_11", "sectors.validate_theorem_3_11"),
    (configspace, "certify_homotopy", "configspace.certify"),
]

# counted only: their time stays in the caller's self time
COUNTED = [
    (linalg.GMat, "key", "linalg.key"),
    (configspace, "_grid_point_in_cone", "configspace.draws"),
] + [
    (minkowski, name, "minkowski.predicates")
    for name in ("chron_after", "causally_precedes", "cone_contains", "cone_included",
                 "causally_disjoint", "in_closure", "outside_causal_hull")
]

WITNESS_PUSHES = (0, 1, 2, 4, 8)  # push order tried per round by build_witness


class Tracer:
    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.incl_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.spans: list[dict] = []
        self._stack: list[float] = []  # time spent in wrapped callees, per open call
        self._open_spans: list[int] = []
        self._campaign: int | None = None
        self._undo: list[tuple[object, str, object]] = []
        self._origin = time.perf_counter()

    # -- wrappers ----------------------------------------------------------

    def _timed(self, key: str, fn, span: bool = False):
        stack, calls, self_s, incl_s = self._stack, self.calls, self.self_s, self.incl_s
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._open_span(key) if span else None
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                inner = stack.pop()
                calls[key] += 1
                self_s[key] += dt - inner
                incl_s[key] += dt
                if stack:
                    stack[-1] += dt
                if span:
                    self._close_span(sid)

        return wrapper

    def _counted(self, key: str, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _open_span(self, name: str) -> int:
        sid = len(self.spans)
        self.spans.append({
            "id": sid,
            "name": name,
            "parent": self._open_spans[-1] if self._open_spans else None,
            "campaign": self._campaign,
            "start": time.perf_counter() - self._origin,
            "end": None,
        })
        self._open_spans.append(sid)
        return sid

    def _close_span(self, sid: int) -> None:
        self._open_spans.pop()
        self.spans[sid]["end"] = time.perf_counter() - self._origin

    @contextmanager
    def campaign(self, name: str):
        sid = self._open_span(f"campaign:{name}")
        self._campaign = sid
        self.spans[sid]["campaign"] = sid
        try:
            yield
        finally:
            self._close_span(sid)
            self._campaign = None

    # -- wrappers with extra counters ----------------------------------------

    def _global_algebra(self, fn):
        build = self._timed("sectors.global_algebra", fn, span=True)

        @functools.wraps(fn)
        def wrapper(net):
            # only a cache miss builds; report the build time
            return fn(net) if "__global__" in net._cache else build(net)

        return wrapper

    def _structure_assignment(self, fn):
        """Count structure-map evaluations and cache hits of the returned
        assignment: a hit is an evaluation that reaches no pfa_structure_map."""
        calls, counts = self.calls, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            assign = fn(*args, **kwargs)
            structure = assign.structure

            def counted_structure(op):
                run = structure(op)

                def counted_run(xs):
                    before = calls["sectors.pfa_structure_map"]
                    out = run(xs)
                    counts["sectors.structure.calls"] += 1
                    counts["sectors.structure.hits"] += calls["sectors.pfa_structure_map"] == before
                    return out

                return counted_run

            assign.structure = counted_structure
            return assign

        return wrapper

    def _equivariant_assignment(self, fn):
        """Count act-cache lookups and hits: a hit reaches no g_act_sector."""
        calls, counts = self.calls, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            assign = fn(*args, **kwargs)
            iso = assign.iso

            def counted_iso(g, u):
                act = iso(g, u)

                def counted_act(rho):
                    before = calls["sectors.g_act_sector"]
                    out = act(rho)
                    counts["sectors.act.calls"] += 1
                    counts["sectors.act.hits"] += calls["sectors.g_act_sector"] == before
                    return out

                return counted_act

            assign.iso = counted_iso
            return assign

        return wrapper

    def _build_witness(self, fn):
        timed, counts = self._timed("minkowski.build_witness", fn, span=True), self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            diagram = timed(*args, **kwargs)
            rounds = (diagram.trace["denominator_log2"] - 6) // 2
            counts["minkowski.witness.attempts"] += (
                rounds * len(WITNESS_PUSHES) + WITNESS_PUSHES.index(diagram.trace["push"]) + 1
            )
            counts["minkowski.witness.builds"] += 1
            return diagram

        return wrapper

    def _sample(self, fn):
        timed, counts = self._timed("configspace.sample", fn), self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            config = timed(*args, **kwargs)
            counts["configspace.accepted"] += len(config.points)
            return config

        return wrapper

    def _dump_json(self, fn):
        timed, counts = self._timed("reports.dump_json", fn), self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            text = timed(*args, **kwargs)
            counts["reports.dump_json.bytes"] += len(text)
            return text

        return wrapper

    # -- patching ------------------------------------------------------------

    def _patch(self, owner, attr: str, make) -> None:
        if isinstance(owner, type):
            original = owner.__dict__[attr]
            self._undo.append((owner, attr, original))
            setattr(owner, attr, make(original))
            return
        original = getattr(owner, attr)
        wrapper = make(original)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").partition(".")[0] != "sectorfact":
                continue
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, name, value))
                    setattr(mod, name, wrapper)

    def install(self) -> None:
        for owner, attr, key in TIMED:
            self._patch(owner, attr, functools.partial(self._timed, key))
        for owner, attr, key in SPANNED:
            self._patch(owner, attr, functools.partial(self._timed, key, span=True))
        for owner, attr, key in COUNTED:
            self._patch(owner, attr, functools.partial(self._counted, key))
        self._patch(sectors.MatrixNet, "global_algebra", self._global_algebra)
        self._patch(sectors, "sector_algebra_assignment", self._structure_assignment)
        self._patch(sectors, "sector_equivariant_assignment", self._equivariant_assignment)
        self._patch(minkowski, "build_witness", self._build_witness)
        self._patch(configspace, "sample_causal_config", self._sample)
        self._patch(reports, "dump_json", self._dump_json)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer values, keyed by the metric names in BENCHMARK.json
        (all but trace.overhead_frac, which the caller measures)."""
        calls, self_s, counts = self.calls, self.self_s, self.counts

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        out: dict[str, float] = {}
        for key in ("linalg.matmul", "linalg.hs_inner", "linalg.nullspace", "linalg.pauli",
                    "sectors.pfa_structure_map", "sectors.diamond", "sectors.same_map",
                    "sectors.apply", "sectors.check_localized", "sectors.commutant",
                    "sectors.g_act_sector", "sectors.find_covariance", "operad.compose",
                    "minkowski.build_witness", "minkowski.lightcone_hit", "configspace.sample",
                    "configspace.certify", "reports.dump_json"):
            out[f"{key}.calls"] = calls[key]
            out[f"{key}.self_s"] = self_s[key]
        out["linalg.key.calls"] = calls["linalg.key"]
        out["sectors.global_algebra.build_s"] = self.incl_s["sectors.global_algebra"]
        out["sectors.structure.calls"] = counts["sectors.structure.calls"]
        out["sectors.structure.hit_ratio"] = ratio(counts["sectors.structure.hits"],
                                                   counts["sectors.structure.calls"])
        out["sectors.act.hit_ratio"] = ratio(counts["sectors.act.hits"], counts["sectors.act.calls"])
        out["operad.enumerate.self_s"] = self_s["operad.enumerate"]
        out["operad.validate.self_s"] = self_s["operad.validate"]
        out["minkowski.witness.attempts_per_build"] = ratio(counts["minkowski.witness.attempts"],
                                                            counts["minkowski.witness.builds"])
        out["minkowski.predicates.calls"] = calls["minkowski.predicates"]
        out["configspace.sample.accept_ratio"] = ratio(counts["configspace.accepted"],
                                                       calls["configspace.draws"])
        out["reports.dump_json.bytes"] = counts["reports.dump_json.bytes"]
        out["fixtures.load.self_s"] = self_s["fixtures.load"]
        out["cli.self_s"] = self_s["cli"]
        return out
