"""flatmin benchmark: three closed-loop workloads against the public API.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: train-steps, flatness-reports, bench-cli, or ``all`` to run each in
its own process. One client calls flatmin in-process and starts the next op
when the previous one returns. All inputs derive from ``--seed``; every output
is checked after the timed loop. Every reported time is scaled by a calibration
chunk timed just before it (see ``calibration.py``), so that the host's slow
stretches do not show as changes of flatmin. ``--trace 0`` reports the
end-to-end metrics.
``--trace 1`` alternates untraced and traced cycles of the same inputs,
reports the per-layer metrics from the traced ops, the tracing overhead, and
fails if a traced op's digest differs from the untraced one.

Human-readable lines come first, then one ``{"detail": ...}`` line (result
digest, every op as measured, error rate, environment), then the result as
the last line.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
WORKLOADS = ("train-steps", "flatness-reports", "bench-cli")
SETUP_REPEATS = 3
IMPORT_REPEATS = 5
RUN_SECONDS = 25
SMOOTH_OPS = 4
TAIL_PCT = 90.0


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS numpy loaded, asked from the library itself."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                return int(fn())
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def environment(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": blas_threads(),
        "cpu": cpu_model(),
        "workload_seed": seed,
    }


def percentile(values: list[float], pct: float) -> float:
    return float(np.percentile(values, pct))


def import_seconds() -> float:
    """Median scaled time a fresh interpreter takes to import flatmin.

    Timed in child processes: in this one the import happens once and reads
    warm or cold caches by chance. The child imports numpy first, untimed: its
    import takes 65-200 ms, swings with the host by more than the calibration
    chunk does, and is not flatmin's work. The chunk is timed in the child,
    just before and after the import, with the batch-32 mix: over 60 children
    the logs of the import time and of that chunk correlated by 0.8.
    """
    code = (
        "import sys, time; sys.path[:0] = sys.argv[1:]; import numpy; "
        "from calibration import Calibration; cal = Calibration(0, 400); before = cal.chunk(); "
        "t = time.perf_counter(); import flatmin; seconds = time.perf_counter() - t; "
        "print(cal.scale(seconds, (before + cal.chunk()) / 2))"
    )
    times = []
    for _ in range(IMPORT_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", code, str(SRC), str(Path(__file__).resolve().parent)],
            capture_output=True,
            text=True,
            check=True,
        )
        times.append(float(done.stdout))
    return percentile(times, 50)


def run_cycle(wl, latencies: list, outputs: list, tracer=None, cal=None, chunks=None) -> float:
    """One op on every input of ``wl``, in order; returns the cycle's wall time.

    With ``cal``, a calibration chunk is timed before each op into ``chunks``.
    """
    cycle_start = time.perf_counter()
    for i in range(len(wl.inputs)):
        if cal is not None:
            chunks.append(cal.chunk())
        start = time.perf_counter()
        try:
            if tracer is None:
                out = wl.run(i)
            else:
                with tracer.op(len(outputs)):
                    out = wl.run(i)
            error = None
        except Exception as err:  # a failed op is counted, and the loop goes on
            out, error = None, f"{type(err).__name__}: {err}"
        latencies.append(time.perf_counter() - start)
        outputs.append((i, out, error))
    return time.perf_counter() - cycle_start


def verify_all(wl, outputs: list, digests: dict) -> tuple[list[str | None], list[int]]:
    """Check every output; an op whose digest differs from an earlier op on the
    same input fails. Returns (errors, bytes written per op)."""
    errors, written = [], []
    for i, out, error in outputs:
        if error is None:
            error, digest = wl.verify(i, out)
            if digests.setdefault(i, digest) != digest:
                error = error or f"digest of input {i} differs from an earlier op"
        errors.append(error)
        written.append(getattr(wl, "bytes_written", 0))
    return errors, written


def input_medians(latencies: list[float], chunks: list[float], outputs: list, n_inputs: int, cal) -> list[float]:
    """Each input's median scaled op time over the run, in seconds.

    An op is scaled by the median of the chunk timed before it and those of its
    ``SMOOTH_OPS`` neighbours on each side: one 12 ms chunk samples the host's
    speed too briefly to stand for a 0.6 s op.
    """
    times: list[list[float]] = [[] for _ in range(n_inputs)]
    for j, (seconds, (i, _, _)) in enumerate(zip(latencies, outputs)):
        near = chunks[max(0, j - SMOOTH_OPS) : j + SMOOTH_OPS + 1]
        times[i].append(cal.scale(seconds, percentile(near, 50)))
    return [percentile(t, 50) for t in times]


def all_ops_summary(lat_ms: list[float], loop_s: float) -> dict:
    """Every op of the run as measured: rate, median, and the highest usual
    percentile that has at least ten ops beyond it."""
    n = len(lat_ms)
    pct = max((p for p in (50, 75, 90, 95, 98, 99) if n * (1 - p / 100) >= 10), default=50)
    tail = percentile(lat_ms, pct)
    return {
        "ops": n,
        "ops_per_s": n / loop_s,
        "p50_ms": percentile(lat_ms, 50),
        "tail_pct": pct,
        "tail_ms": tail,
        "beyond_tail": sum(x > tail for x in lat_ms),
    }


def workload_digest(digests: dict) -> str:
    return hashlib.sha256("".join(digests[i] for i in sorted(digests)).encode()).hexdigest()


def run_workload(args: argparse.Namespace) -> int:
    if not (SRC / "flatmin" / "__init__.py").is_file():
        print(f"perfbench: no flatmin sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import flatmin
    import tracer as tracing
    import workloads
    from calibration import Calibration

    if not Path(flatmin.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"perfbench: flatmin was imported from {flatmin.__file__}", file=sys.stderr)
        return 2

    cls = workloads.WORKLOADS[args.workload]
    work_dir = WORK / f"{args.workload}-{os.getpid()}"
    cal = Calibration(*cls.calibration)
    import_s = import_seconds() if args.trace == 0 else 0.0
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS if args.trace == 0 else 1):
            before = cal.chunk()
            start = time.perf_counter()
            wl = cls(args.seed, work_dir)
            seconds = time.perf_counter() - start
            setup_times.append(cal.scale(seconds, (before + cal.chunk()) / 2))

        cycle_times: list[float] = []
        latencies: list[float] = []
        chunks: list[float] = []
        outputs: list = []
        traced_latencies: list[float] = []
        traced_chunks: list[float] = []
        traced_outputs: list = []
        tracer = tracing.Tracer()
        deadline = time.perf_counter() + args.seconds
        while True:
            cycle_times.append(run_cycle(wl, latencies, outputs, cal=cal, chunks=chunks))
            if args.trace:
                tracer.install()
                try:
                    run_cycle(wl, traced_latencies, traced_outputs, tracer, cal, traced_chunks)
                finally:
                    tracer.uninstall()
            if time.perf_counter() >= deadline:
                break

        digests: dict = {}
        errors, _ = verify_all(wl, outputs, digests)
        traced_errors, written = verify_all(wl, traced_outputs, digests)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    all_errors = errors + traced_errors
    failed = sum(e is not None for e in all_errors)
    attempted = len(all_errors)
    lat_ms = [x * 1e3 for x in latencies]
    n_inputs = len(wl.inputs)
    medians = input_medians(latencies, chunks, outputs, n_inputs, cal)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "digest": workload_digest(digests),
        "error_rate": failed / attempted,
        "first_error": next((e for e in all_errors if e is not None), None),
        "ops": len(latencies),
        "chunk_ms": {"median": percentile(chunks, 50) * 1e3, "min": min(chunks) * 1e3},
        "environment": environment(args.seed),
    }
    if args.trace == 0:
        medians_ms = [x * 1e3 for x in medians]
        detail["input_medians_ms"] = medians_ms
        detail["all_ops"] = all_ops_summary(lat_ms, sum(cycle_times))
        detail["setup_runs_s"] = setup_times
        detail["import_s"] = import_s
        metrics = {
            "setup_s": (import_s + percentile(setup_times, 50), "s"),
            "ops_per_s": (n_inputs / sum(medians), "ops/s"),
            "op_p50_ms": (percentile(medians_ms, 50), "ms"),
            "op_tail_ms": (percentile(medians_ms, TAIL_PCT), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        traced = input_medians(traced_latencies, traced_chunks, traced_outputs, n_inputs, cal)
        detail["tracing_overhead"] = sum(traced) / sum(medians) - 1.0
        detail["traced_ops"] = len(traced_latencies)
        spans_path = WORK / "spans" / f"{args.workload}-seed{args.seed}.csv.gz"
        tracer.write_spans(spans_path)
        detail["spans"] = str(spans_path.relative_to(ROOT))
        bytes_per_op = sum(written) / len(written) if written else 0.0
        layer = tracing.layer_metrics(tracer.spans, bytes_per_op)
        units = {name: unit for name, unit, _ in tracing.PER_LAYER}
        metrics = {name: (value, units[name]) for name, value in layer.items()}

    print(f"{args.workload}  seed {args.seed}  trace {args.trace}  ops {attempted}  failed {failed}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<36} {value:>14.6g} {unit}")
    print(f"  {'error_rate':<36} {failed / attempted:>14.6g} fraction ({failed}/{attempted})")
    if args.trace == 0:
        raw = detail["all_ops"]
        print(
            f"  all {raw['ops']} ops as measured, unscaled: {raw['ops_per_s']:.4g} ops/s, "
            f"p50 {raw['p50_ms']:.4g} ms, p{raw['tail_pct']} {raw['tail_ms']:.4g} ms with {raw['beyond_tail']} beyond"
        )
    else:
        print(f"  tracing overhead {detail['tracing_overhead']:+.1%} over {detail['traced_ops']} traced ops")
    chunk = detail["chunk_ms"]
    print(f"  calibration chunk {chunk['median']:.4g} ms median, {chunk['min']:.4g} ms min")
    print(f"  digest {detail['digest']}")
    if detail["first_error"]:
        print(f"  first error: {detail['first_error']}")
    print(json.dumps({"detail": detail}))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process, so peak RSS and set-up stay its own."""
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name]
        cmd += ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status = max(status, subprocess.run(cmd, check=False).returncode)
    return status


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
