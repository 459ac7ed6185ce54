"""curvedkepler benchmark: one workload per run, closed loop, one thread.

Run from the repository root:

    python3 bench/run.py --workload level-scan --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1

The program is imported from ``src/`` beside this directory.  A run builds
the workload's inputs from ``--seed``, makes one untimed reference pass,
then runs chunks back to back until ``--seconds`` have passed, checking
each chunk's outputs outside the timed region.

Times are in reference seconds.  On a shared host the core's speed drifts,
by up to a factor of two over tens of seconds on a 2-vCPU KVM guest, so a
fixed calibration kernel is timed just before and just after every sample
(a chunk, or a set-up probe) and the sample is scaled by
``CALIBRATION_REF_S`` over their mean.  ``CALIBRATION_REF_S`` is the
kernel's time on an unloaded core of that guest, so there the scaled time
is the wall-clock time; the raw wall-clock medians are recorded in the
info line beside it.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` spends half
the time untraced and half on whole traced passes, and reports the
per-layer metrics; the tracing overhead goes to the info line.
Standard output ends with a table, one ``info`` JSON line, and as the last
line the result JSON.  ``--workload all`` runs every workload in its own
process and exits non-zero if any of them fails.
"""

import os

# BLAS/OpenMP pools would put leggauss's eigvalsh on a second thread.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "BLIS_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("verify-all", "level-scan", "eval-grid", "normalize-level")
SETUP_PROBES = 9
TAIL_BEYOND = 10
MIN_SAMPLES = TAIL_BEYOND + 1
PROBE_TIMEOUT_S = 60
CHILD_TIMEOUT_S = 900
CALIBRATION_REF_S = 0.014
SIZES = ("states", "points", "reports")

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "wall_tail_s": "s",
    "states_per_s": "1/s",
    "points_per_s": "1/s",
    "pass_frac": "frac",
    "peak_rss_mb": "MiB",
}


class BenchError(Exception):
    """The benchmark cannot produce a result (exit code 2, no result line)."""


def load_package():
    """Import curvedkepler from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "curvedkepler" / "__init__.py").is_file():
        raise BenchError(f"no curvedkepler sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import curvedkepler

    if SRC not in Path(curvedkepler.__file__).resolve().parents:
        raise BenchError(f"curvedkepler imported from {curvedkepler.__file__}, not {SRC}")


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "curvedkepler").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return None
    ref = (git / "HEAD").read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    if (git / "packed-refs").is_file():
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment() -> dict:
    import numpy

    return {
        "commit": git_commit(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


# ---------------------------------------------------------------------------
# timing


def calibration_kernel() -> float:
    """Seconds for a fixed mix of interpreter work and small and large numpy
    arrays; of the mixes tried, this one tracked all four workloads' drift."""
    import numpy as np

    start = time.perf_counter()
    acc: dict = {}
    for i in range(6000):
        key = (i % 7, i % 11, i % 13)
        acc[key] = acc.get(key, 0j) + complex(i, 1.0) * 0.5
    ",".join("%.17g" % v.real for v in acc.values())
    z = np.linspace(0.1, 1.0, 8000) + 0.5j
    for _ in range(4):
        z = np.exp(0.3 * np.log(1.0 - z))
    z = np.linspace(0.1, 1.0, 65536) + 0.5j
    np.exp(0.3 * np.log(1.0 - z))
    return time.perf_counter() - start


class Clock:
    """Times a call in reference seconds; keeps the raw times alongside."""

    def __init__(self) -> None:
        self.scaled: list[float] = []
        self.raw: list[float] = []
        self.kernel: list[float] = []

    def time(self, fn, *args):
        before = calibration_kernel()
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            raw = time.perf_counter() - start
            kernel = 0.5 * (before + calibration_kernel())
            self.raw.append(raw)
            self.kernel.append(kernel)
            self.scaled.append(raw * CALIBRATION_REF_S / kernel)


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with TAIL_BEYOND samples beyond it, and that percentile."""
    ordered = sorted(samples)
    rank = len(ordered) - TAIL_BEYOND  # 1-based; TAIL_BEYOND samples lie above it
    return ordered[rank - 1], 100.0 * rank / len(ordered)


class SetupProbe:
    """Times a fresh interpreter that imports curvedkepler and builds the inputs.

    On a shared host set-up time switches between two levels for seconds
    at a time, so the probes are spread over the whole run rather than
    made back to back.  The first probe is not timed: it writes the bytecode
    caches, which an installed package already has.
    """

    def __init__(self, workload: str, seed: int) -> None:
        self.cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", workload,
                    "--seed", str(seed)]
        self.clock = Clock()
        self._spawn()

    def _spawn(self) -> None:
        proc = subprocess.run(
            self.cmd, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=PROBE_TIMEOUT_S
        )
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.decode(errors='replace')}")

    def measure(self) -> None:
        self.clock.time(self._spawn)


# ---------------------------------------------------------------------------
# loops


def run_chunk(wl, j: int, tally, clock: Clock | None = None, tracer=None) -> None:
    """Run chunk j (timed if a clock is given, traced if a tracer is), then
    check its outputs untimed and untraced.

    An exception fails every operation of the chunk; the loop goes on.
    """
    try:
        if tracer is None:
            out = clock.time(wl.run, j) if clock else wl.run(j)
        else:
            with tracer:
                out = clock.time(wl.run, j)
    except Exception as exc:  # reported and counted; the run goes on
        traceback.print_exc(file=sys.stderr)
        tally.attempted += wl.ops(j)
        tally.fail(wl.ops(j), f"chunk {j}: {type(exc).__name__}: {exc}")
        return
    wl.check(j, out, tally)


def reference_pass(wl, tally) -> dict[int, dict[str, int]]:
    """The untimed first pass; returns the states, points and reports of each chunk."""
    sizes = {}
    for j in range(wl.n_chunks):
        before = {k: getattr(tally, k) for k in SIZES}
        run_chunk(wl, j, tally)
        sizes[j] = {k: getattr(tally, k) - before[k] for k in SIZES}
    return sizes


def timed_loop(wl, seconds: float, tally, min_samples: int, probe: SetupProbe | None = None):
    """Chunks back to back, cycling, until the time is up.

    With a probe, SETUP_PROBES set-up probes are spread evenly between
    the chunks.  Returns the clock and the chunk index of each sample.
    """
    from tracing import installed_wrappers

    clock, chunks = Clock(), []
    start = time.perf_counter()
    while len(chunks) < min_samples or time.perf_counter() < start + seconds:
        if installed_wrappers():
            raise BenchError(f"span wrappers left installed: {installed_wrappers()}")
        if probe and len(probe.clock.scaled) < SETUP_PROBES * (time.perf_counter() - start) / seconds:
            probe.measure()
        j = len(chunks) % wl.n_chunks
        run_chunk(wl, j, tally, clock)
        chunks.append(j)
    while probe and len(probe.clock.scaled) < SETUP_PROBES:
        probe.measure()
    return clock, chunks


def traced_passes(wl, seconds: float, tally):
    """Whole passes under the tracer until the time is up (at least one)."""
    from tracing import Tracer, merge_passes

    tracer, clock, passes = Tracer(), Clock(), []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        lo, out_bytes = tracer.mark(), tally.output_bytes
        for j in range(wl.n_chunks):
            run_chunk(wl, j, tally, clock, tracer)
        layer = tracer.summarize(lo, tracer.mark())
        layer["cli.output_bytes"] = tally.output_bytes - out_bytes
        passes.append(layer)
    merged, drift = merge_passes(passes)
    return merged, drift, clock, len(passes), len(tracer.spans)


# ---------------------------------------------------------------------------
# one workload


def rate(clock: Clock, chunks: list[int], sizes: dict, key: str) -> float:
    return statistics.median(sizes[j][key] / dt for dt, j in zip(clock.scaled, chunks))


def measure(name: str, seed: int, seconds: float, trace: bool):
    """Run one workload; returns (metrics, info, tally)."""
    from workloads import WORKLOADS, Tally

    info = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace)}
    info["env"] = environment()
    probe = None if trace else SetupProbe(name, seed)
    wl = WORKLOADS[name](seed)
    tally = Tally()
    sizes = reference_pass(wl, tally)

    if trace:
        untraced, _ = timed_loop(wl, seconds / 2, tally, min_samples=wl.n_chunks)
        metrics, drift, traced, n_passes, n_spans = traced_passes(wl, seconds / 2, tally)
        for metric in drift:
            tally.fail(0, f"per-layer count {metric} differs between traced passes")
        metrics["report.worst_max_rel"] = tally.worst_max_rel
        metrics["kepler.normalize.err_max"] = tally.norm_err_max
        overhead = statistics.median(traced.scaled) / statistics.median(untraced.scaled) - 1.0
        info.update(tracing_overhead=overhead, traced_passes=n_passes, spans=n_spans)
    else:
        clock, chunks = timed_loop(wl, seconds, tally, MIN_SAMPLES, probe)
        wall_tail, pct = tail(clock.scaled)
        metrics = {
            "setup_s": statistics.median(probe.clock.scaled),
            "wall_s": statistics.median(clock.scaled),
            "wall_tail_s": wall_tail,
            "states_per_s": rate(clock, chunks, sizes, "states"),
            "points_per_s": rate(clock, chunks, sizes, "points"),
            "pass_frac": (tally.attempted - tally.failed - tally.missed) / max(tally.attempted, 1),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        info.update(
            samples=len(clock.scaled),
            wall_tail_pct=pct,
            raw_wall_s=statistics.median(clock.raw),
            raw_setup_s=statistics.median(probe.clock.raw),
            calibration_s=statistics.median(clock.kernel),
        )
        # numbers named per workload rather than gated on every workload
        record = {"fail_frac": (tally.failed + tally.missed) / max(tally.attempted, 1)}
        if name in ("verify-all", "level-scan"):
            record["reports_per_s"] = rate(clock, chunks, sizes, "reports")
            record["worst_max_rel"] = tally.worst_max_rel
        if name == "eval-grid":
            record["grid_points_per_s"] = metrics["points_per_s"]
        if name == "normalize-level":
            record["norm_err_max"] = tally.norm_err_max
        info["record"] = record
    info["workload_record"] = wl.summary()
    info["problems"] = tally.problems
    return metrics, info, tally


def layer_unit(metric: str) -> str:
    if metric.endswith(".self_s"):
        return "s"
    if metric.endswith(("max_rel", "err_max")):
        return "rel"
    return "bytes" if metric.endswith("_bytes") else "count"


def run_all(args) -> int:
    """Every workload in its own interpreter; non-zero if any fails."""
    code = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        print(f"== {name}", flush=True)
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
        sys.stdout.write(proc.stdout)
        last = proc.stdout.strip().splitlines()[-1:] or ["{}"]
        try:
            ok = proc.returncode == 0 and json.loads(last[0]).get("correct") is True
        except ValueError:
            ok = False
        code = code or (0 if ok else 1)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if args.workload == "all":
        return run_all(args)
    try:
        load_package()
        sys.path.insert(0, str(HERE))
        if args.setup_probe:
            from workloads import WORKLOADS

            WORKLOADS[args.workload](args.seed)
            return 0
        metrics, info, tally = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    units = {k: layer_unit(k) for k in metrics} if args.trace else E2E_UNITS
    correct = tally.failed == 0 and not tally.problems
    for key, value in metrics.items():
        print(f"{args.workload:16s} {key:42s} {value:>16.6g} {units[key]}")
    print("info " + json.dumps(info, sort_keys=True, default=str))
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
