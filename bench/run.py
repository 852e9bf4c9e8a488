"""Verdict-throughput benchmark of the quadrinomials library.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The library is imported from ``src/`` next to
this directory, in this one process, with BLAS pinned to one thread.  The
run warms up, then times ops from the seeded workload stream until the ops
themselves have taken ``--seconds``; every op's verdicts are checked against
an oracle outside the timed region.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs half the
time untraced, replaying each 1 s chunk of ops at once with span wrappers
installed on the six library modules, and reports the per-layer metrics.
Human-readable lines go first; the last line of standard output is the JSON
result.  A full record (environment, failures, spans, machine-speed probe)
is written under ``.bench_results/``.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is imported

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

STARTED = time.perf_counter()

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".bench_results"
SETUP_RUNS = 5
SETUP_CODE = "import quadrinomials.cli as c; c.build_parser(); print(c.__file__)"
WARMUP_S = 0.5
TRACE_CHUNK_S = 1.0


def load_library() -> None:
    """Import quadrinomials from this checkout's src/, or exit with an error."""
    if not (SRC / "quadrinomials" / "__init__.py").is_file():
        sys.exit(f"bench: no library source at {SRC / 'quadrinomials'}")
    sys.path.insert(0, str(SRC))
    import quadrinomials

    if not Path(quadrinomials.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"bench: imported {quadrinomials.__file__}, not the checkout's src/")


def measure_setup() -> tuple[float, list[float]]:
    """Median wall time of a fresh interpreter importing the CLI and building its parser."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    times = []
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
            capture_output=True, text=True, timeout=60,
        )
        times.append(time.perf_counter() - start)
        if proc.returncode != 0 or not Path(proc.stdout.strip()).resolve().is_relative_to(SRC):
            sys.exit(f"bench: set-up probe failed: {proc.stderr.strip() or proc.stdout.strip()}")
    return statistics.median(times), times


def environment(args) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted((SRC / "quadrinomials").glob("*.py")))
    return {
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": cpu,
        "platform": platform.platform(),
        "src_lines": src_lines,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def git_commit() -> str:
    """HEAD of the checkout read from .git, or "unknown" outside a git tree."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Runner:
    """Times ops one by one and checks each verdict outside the timed region."""

    def __init__(self):
        self.tracer = None  # a spans.Tracer while the traced replay runs
        self.latencies: list[float] = []
        self.kinds: dict[str, list[float]] = {}
        self.wrong: list[str] = []
        self.raised: list[str] = []
        self.warnings = 0
        self.check_s = 0.0  # oracle time, outside the timed region

    def run(self, op) -> float:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            if self.tracer:
                self.tracer.warning_log = caught
                self.tracer.op = len(self.latencies)
                self.tracer.recording = True
            start = time.perf_counter()
            try:
                result, error = op.call(), None
            except Exception as exc:  # any library failure is a failed op, not a crash
                result, error = None, exc
            elapsed = time.perf_counter() - start
            if self.tracer:
                self.tracer.recording = False
        self.warnings += sum(issubclass(w.category, RuntimeWarning) for w in caught)
        self.latencies.append(elapsed)
        self.kinds.setdefault(op.kind, []).append(elapsed)
        if error is not None:
            self.raised.append(f"{op.label}: {type(error).__name__}: {error}")
        else:
            start = time.perf_counter()
            reason = op.check(result)
            self.check_s += time.perf_counter() - start
            if reason:
                self.wrong.append(f"{op.label}: {reason}")
        return elapsed

    def run_for(self, ops, seconds: float) -> list:
        done, busy = [], 0.0
        for op in ops:
            busy += self.run(op)
            done.append(op)
            if busy >= seconds:
                break
        return done

    @property
    def failed(self) -> int:
        return len(self.wrong) + len(self.raised)


def warm_up(stream) -> int:
    """Untimed ops so lazy imports and caches settle; returns how many ran."""
    return len(Runner().run_for(stream, WARMUP_S))


def machine_probe_ms() -> float:
    """Median time of a fixed numpy + pure-Python kernel, as a record of how
    fast the host ran; it is not a metric and touches no library code."""
    import numpy
    from numpy.polynomial import polynomial as npp

    coeffs = numpy.cos(numpy.arange(41.0))
    times = []
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(40):
            npp.polyroots(coeffs)
        sum(i * i for i in range(200_000))
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)


def quantile(values: list[float], q: int) -> float:
    """q-th percentile, interpolated between order statistics."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    load_library()
    import workloads  # imports quadrinomials, so only after load_library

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    RESULTS.mkdir(exist_ok=True)
    out = str(RESULTS / f"cli-{args.workload}-{args.seed}-{os.getpid()}.json")
    env = environment(args)
    runner = Runner()
    try:
        warmed = warm_up(workloads.stream(args.workload, args.seed, "warm-up", out))
        probe = [machine_probe_ms()]
        ops = workloads.stream(args.workload, args.seed, "run", out)
        measure = traced_run if args.trace else untraced_run
        metrics, units, record = measure(runner, ops, args.seconds)
        probe.append(machine_probe_ms())
    finally:
        if os.path.exists(out):
            os.remove(out)
    n = len(runner.latencies)
    result = {
        "correct": not runner.wrong,
        "attempted": n,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record.update(
        environment=env, warm_up_ops=warmed, result=result, wall_s=time.perf_counter() - STARTED,
        machine_probe_ms=probe,
        samples=n, check_s=runner.check_s, failed_ratio=runner.failed / n, runtime_warnings=runner.warnings,
        wrong=runner.wrong[:50], raised=runner.raised[:50],
        ops_by_kind={k: {"count": len(v), "median_ms": 1e3 * statistics.median(v)} for k, v in runner.kinds.items()},
    )
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"python {env['python']}  numpy {env['numpy']}  blas {env['blas']} x{env['blas_threads']}  "
          f"nproc {env['nproc']}  src {env['src_lines']} lines  commit {env['git_commit'][:12]}")
    print(f"  ops {n}  failed {runner.failed} (wrong {len(runner.wrong)}, raised {len(runner.raised)})  "
          f"failed_ratio {runner.failed / n:.4g}  runtime warnings {runner.warnings}  "
          f"machine probe {probe[0]:.2f}/{probe[1]:.2f} ms before/after")
    for line in (runner.wrong + runner.raised)[:5]:
        print(f"  FAILED {line}")
    for key, value in metrics.items():
        print(f"  {key:42s} {value:14.6g} {units[key]}  (n={n})")
    print(f"  record {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


E2E_UNITS = {"ops_per_s": "1/s", "op_ms_p50": "ms", "op_ms_p90": "ms", "setup_s": "s", "peak_rss_mb": "MB"}


def untraced_run(runner: Runner, ops, seconds: float):
    runner.run_for(ops, seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup, setup_runs = measure_setup()
    lat_ms = [1e3 * t for t in runner.latencies]
    metrics = {
        "ops_per_s": len(lat_ms) / sum(runner.latencies),
        "op_ms_p50": statistics.median(lat_ms),
        "op_ms_p90": quantile(lat_ms, 90),
        "setup_s": setup,
        "peak_rss_mb": rss_mb,
    }
    return metrics, E2E_UNITS, {"setup_runs_s": setup_runs}


def traced_run(runner: Runner, ops, seconds: float):
    """Half the time untraced; each chunk of ops is replayed at once with
    spans recorded, so slow and fast spells of the machine hit both sides."""
    from spans import Tracer

    tracer = Tracer()
    untraced_s = traced_s = 0.0
    replayed = 0
    while untraced_s < seconds / 2:
        first = len(runner.latencies)
        chunk = runner.run_for(ops, TRACE_CHUNK_S)
        untraced_s += sum(runner.latencies[first:])
        tracer.install()
        try:
            runner.tracer = tracer
            traced_s += sum(runner.run(op) for op in chunk)
        finally:
            runner.tracer = None
            tracer.uninstall()
        replayed += len(chunk)
    metrics, units = tracer.layer_metrics()
    metrics["trace.overhead_ratio"] = traced_s / untraced_s - 1.0
    metrics["trace.ops"] = float(replayed)
    units.update({"trace.overhead_ratio": "ratio", "trace.ops": "count"})
    record = {
        "span_fields": ["name", "start", "end", "parent", "op"],
        "spans": [[n, round(a, 7), round(b, 7), p, o] for n, a, b, p, o in tracer.spans],
        "span_attrs": {str(i): a for i, a in tracer.attrs.items()},
        "layers": {name: dict(st) for name, st in tracer.summary().items()},
    }
    return metrics, units, record


if __name__ == "__main__":
    sys.exit(main())
