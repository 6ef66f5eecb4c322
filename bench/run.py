"""Campaign benchmark for sectorfact.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload's CLI campaigns in-process through `sectorfact.cli.main()`,
as one closed-loop client: each campaign starts when the previous one has
returned.  Every campaign's exit code and report sha256 are checked against
bench/reference.json (seeded campaigns: for the default seed only, plus the
benchmark's own oracle on every seed), and every repeated run of a campaign
must give the same report bytes.

--trace 0 repeats whole passes over the campaigns until another pass would
overrun S seconds and prints the end-to-end metrics.  Times are rescaled to
a reference host speed, measured by timing a fixed piece of standard-library
work on a timer while they run (see HostSpeed); the raw times are printed
and recorded too.  --trace 1 runs one
untraced and one traced pass and prints the per-layer metrics; the traced
reports must equal the untraced ones byte for byte.  The last
line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
A detailed record (environment, per-pass and per-campaign times, failures,
spans) goes to bench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from fractions import Fraction

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
REFERENCE = os.path.join(BENCH, "reference.json")
DEFAULT_SEED = 0
SETUP_PROBES = 10  # set-up runs in fresh processes, besides the one in-process
CALIBRATION_PERIOD_S = 0.02  # between host-speed samples during a pass
SETUP_CALIBRATION_PERIOD_S = 0.01  # set-up lasts about 0.1 s
# a calibration unit's time on the 2-vCPU Xeon host the figures in
# README.md come from; it only scales the rescaled times
REFERENCE_UNIT_S = 350e-6
PINNED_ENV = {"PYTHONHASHSEED": "0", "SECTORFACT_THREADS": "1"}
WORKLOAD_NAMES = ("sector-calculus", "operad-sweep", "causal-geometry", "sector-symmetry")


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def pin_environment() -> None:
    """Re-execute under a fixed hash seed and a single campaign thread."""
    if all(os.environ.get(k) == v for k, v in PINNED_ENV.items()):
        return
    os.execve(sys.executable, [sys.executable, os.path.abspath(__file__), *sys.argv[1:]],
              {**os.environ, **PINNED_ENV})


def environment() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "git_sha": git_sha(),
        **{k: os.environ.get(k) for k in PINNED_ENV},
    }


def git_sha() -> str:
    """HEAD of the enclosing git checkout, or "unknown" outside one."""
    try:
        # the ceiling keeps git from reporting a repository that encloses ROOT
        proc = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True,
            timeout=30, env={**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)},
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


# ---------------------------------------------------------------------------
# host speed
# ---------------------------------------------------------------------------


def calibration_unit() -> None:
    """Fixed interpreter work from the standard library alone, so that no
    change to sectorfact changes its cost: Fraction arithmetic and dict
    traffic, as on the program's hot paths."""
    table = {}
    acc = Fraction(0)
    for i in range(1, 60):
        acc += Fraction(i, i + 7) * Fraction(3, i + 1)
        table[i, i % 5] = acc


class HostSpeed:
    """Times `calibration_unit` every `period_s` of wall time while a
    measured section runs, so that the section's time can be rescaled to
    the reference speed.  The host's speed drifts by tens of percent over
    seconds to minutes, in CPU time as much as in wall time, and the unit
    slows with it; README.md gives the spreads of raw and rescaled times."""

    def __init__(self, period_s: float):
        self.period_s = period_s
        self.samples: list[float] = []

    def _sample(self, signum=None, frame=None) -> None:
        enabled = gc.isenabled()
        gc.disable()  # collecting the program's garbage is not the unit's cost
        t0 = time.perf_counter()
        calibration_unit()
        self.samples.append(time.perf_counter() - t0)
        if enabled:
            gc.enable()

    def __enter__(self) -> "HostSpeed":
        for _ in range(3):  # the interpreter specialises the unit's code on first runs
            calibration_unit()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:
            self._sample()

    def scale(self) -> float:
        """Factor from measured seconds to seconds at the reference speed.

        Samples come at equal steps of wall time, and the work done in a
        step is proportional to the speed, the inverse of the unit's time
        then; so the factor is the mean of reference over sampled unit
        time, not reference over the mean unit time."""
        return REFERENCE_UNIT_S / statistics.harmonic_mean(self.samples)


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def setup(workload: str, seed: int, work: str):
    """Import sectorfact, export fixtures and generate inputs; returns the
    raw and the rescaled time and the campaigns."""
    with HostSpeed(SETUP_CALIBRATION_PERIOD_S) as speed:
        t0 = time.perf_counter()
        sys.path.insert(0, os.path.join(ROOT, "src"))
        import workloads

        campaigns = workloads.WORKLOADS[workload](work, seed)
        elapsed = time.perf_counter() - t0
    return elapsed, elapsed * speed.scale(), campaigns


def probe_setup(workload: str, seed: int, work_root: str) -> tuple[float, float]:
    """One set-up in a fresh interpreter, so that the import is cold."""
    work = tempfile.mkdtemp(prefix="probe-", dir=work_root)
    try:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(seed), "--setup-probe", work],
            capture_output=True, text=True, timeout=120, check=True,
        )
        raw, rescaled = proc.stdout.split()
        return float(raw), float(rescaled)
    finally:
        shutil.rmtree(work, ignore_errors=True)


# ---------------------------------------------------------------------------
# campaigns
# ---------------------------------------------------------------------------


class Runner:
    """Runs campaigns and judges each outcome."""

    def __init__(self, campaigns, reference: dict, check_seeded: bool, work: str):
        from sectorfact import cli

        self.cli = cli
        self.campaigns = campaigns
        self.reference = reference
        self.check_seeded = check_seeded
        self.out_path = os.path.join(work, "report.json")
        self.first: dict[str, str] = {}  # digest of each campaign's first run
        self.verdicts: dict[str, str | None] = {}  # oracle verdict on those bytes
        self.attempted = 0
        self.failures: list[dict] = []
        self.times: dict[str, list[float]] = {c.name: [] for c in campaigns}

    def run_pass(self, tracer=None) -> dict:
        """All campaigns once; returns raw and rescaled times and the digests."""
        gc.collect()  # the previous pass's garbage is not collected on this pass's clock
        wall = cpu = 0.0
        digests = {}
        with HostSpeed(CALIBRATION_PERIOD_S) as speed:
            for c in self.campaigns:
                scope = tracer.campaign(c.name) if tracer else contextlib.nullcontext()
                with scope:
                    w, cp, digests[c.name] = self._run(c)
                wall += w
                cpu += cp
                self.times[c.name].append(w)
        scale = speed.scale()
        return {"wall_s": wall, "cpu_s": cpu, "scale": scale, "wall_ref_s": wall * scale,
                "cpu_ref_s": cpu * scale, "digests": digests}

    def _run(self, c) -> tuple[float, float, str]:
        # a campaign that writes no report must not be judged on the last one's
        if os.path.exists(self.out_path):
            os.remove(self.out_path)
        error = None
        stderr = io.StringIO()
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            with contextlib.redirect_stderr(stderr):
                code = self.cli.main(list(c.argv) + ["--out", self.out_path])
        except SystemExit as exc:
            code = exc.code
        except Exception:  # an exception escaping main() is a failed campaign
            code, error = None, "exception escaped main():\n" + traceback.format_exc()
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        try:
            with open(self.out_path, "rb") as fh:
                data = fh.read()
        except FileNotFoundError:
            data = b""
        digest = hashlib.sha256(data).hexdigest()
        self.attempted += 1
        error = error or self._judge(c, code, data, digest)
        if error:
            self.failures.append({"campaign": c.name, "exit": code, "sha256": digest,
                                  "error": error, "stderr": stderr.getvalue()})
        return wall, cpu, digest

    def _judge(self, c, code, data: bytes, digest: str) -> str | None:
        if code != c.expect:
            return f"exit code {code}, expected {c.expect}"
        if digest != self.first.setdefault(c.name, digest):
            return "report bytes differ from this campaign's first run"
        if self.check_seeded or not c.seeded:
            ref = self.reference.get(c.name)
            if ref is None:
                return "no reference digest recorded"
            if digest != ref:
                return "report sha256 differs from the reference"
        if c.check is not None and c.name not in self.verdicts:
            try:
                self.verdicts[c.name] = c.check(data)
            except (ValueError, KeyError, TypeError) as exc:
                self.verdicts[c.name] = f"report unreadable by the oracle: {exc!r}"
        # later runs repeat the first run's bytes, so its verdict holds for them
        return self.verdicts.get(c.name)


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def measure(runner: Runner, args) -> list[dict]:
    """Whole passes until another pass would overrun --seconds; one pass
    when tracing."""
    passes = []
    t_start = time.perf_counter()
    while not passes or (time.perf_counter() - t_start
                         + statistics.median(p["wall_s"] for p in passes) <= args.seconds):
        passes.append(runner.run_pass())
        if args.trace:
            break
    return passes


def traced_metrics(runner: Runner, untraced: dict) -> tuple[dict, list[dict]]:
    import tracer as tracing

    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = runner.run_pass(tracer)
    finally:
        tracer.uninstall()
    layer = tracer.metrics()
    layer["trace.overhead_frac"] = traced["wall_ref_s"] / untraced["wall_ref_s"] - 1
    return {name: {"value": v, "unit": unit_of(name)} for name, v in layer.items()}, tracer.spans


def end_to_end_metrics(passes: list[dict], setup_samples: list[tuple[float, float]]) -> dict:
    return {
        "wall_ref_s": {"value": statistics.median(p["wall_ref_s"] for p in passes), "unit": "s"},
        "cpu_ref_s": {"value": statistics.median(p["cpu_ref_s"] for p in passes), "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "unit": "MB"},
        "setup_s": {"value": statistics.median(r for _, r in setup_samples), "unit": "s"},
    }


def unit_of(name: str) -> str:
    if name.endswith(".calls"):
        return "count"
    if name.endswith("_s"):
        return "s"
    if name.endswith(".bytes"):
        return "B"
    return "ratio"


def run(args) -> int:
    work_root = os.path.join(BENCH, ".work")
    os.makedirs(work_root, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    try:
        try:
            *setup_s, campaigns = setup(args.workload, args.seed, work)
        except ImportError as exc:
            sys.stderr.write(f"cannot import sectorfact from {ROOT}/src: {exc}\n")
            return 2
        setup_samples = [tuple(setup_s)] + [
            probe_setup(args.workload, args.seed, work_root) for _ in range(SETUP_PROBES)
        ]
        reference_doc = load_reference()
        runner = Runner(
            campaigns,
            reference_doc["workloads"].get(args.workload, {}),
            args.seed == reference_doc["seed"],
            work,
        )
        passes = measure(runner, args)
        spans = None
        if args.trace:
            metrics, spans = traced_metrics(runner, passes[0])
        else:
            metrics = end_to_end_metrics(passes, setup_samples)
        attempted, failed = runner.attempted, len(runner.failures)
        digests = passes[0]["digests"]

        env = environment()
        out_dir = os.path.join(BENCH, "out")
        os.makedirs(out_dir, exist_ok=True)
        detail = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "environment": env,
            "setup_samples": [{"raw_s": w, "ref_s": r} for w, r in setup_samples],
            "passes": [{k: v for k, v in p.items() if k != "digests"} for p in passes],
            "campaign_median_s": {n: statistics.median(t) for n, t in runner.times.items()},
            "digests": digests, "failures": runner.failures,
            "failed_frac": failed / attempted, "metrics": metrics, "spans": spans,
        }
        with open(os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
                  "w", encoding="utf-8") as fh:
            json.dump(detail, fh, indent=1, sort_keys=True)

        print(f"environment: nproc={env['nproc']} python={env['python']} git={env['git_sha']} "
              f"PYTHONHASHSEED={env['PYTHONHASHSEED']} SECTORFACT_THREADS={env['SECTORFACT_THREADS']}")
        print(f"{args.workload} seed={args.seed}: {len(passes)} pass(es) of {len(campaigns)} campaigns; "
              f"failed_frac={failed / attempted:g} ({failed}/{attempted})")
        for f in runner.failures:
            print(f"FAILED {f['campaign']}: {f['error']}")
        if not args.trace:
            print(f"  raw: wall_s = {statistics.median(p['wall_s'] for p in passes):.6g} s, "
                  f"cpu_s = {statistics.median(p['cpu_s'] for p in passes):.6g} s, "
                  f"setup_s = {statistics.median(w for w, _ in setup_samples):.6g} s")
        for name, m in metrics.items():
            print(f"  {name} = {m['value']:.6g} {m['unit']}")
        print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                          "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    args = parse_args()
    pin_environment()
    if args.setup_probe:
        raw, rescaled, _ = setup(args.workload, args.seed, args.setup_probe)
        sys.stdout.write(f"{raw!r} {rescaled!r}\n")
        return 0
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
