"""Benchmark of the insdel codes: one process, one thread, one closed-loop
client (the next op starts when the previous one returned).

    python3 bench/run.py --workload linear-gf64 --seed 0 --seconds 30 --trace 0

Run from the repository root; the library is imported from ./src.  The last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1.  The line before it records the environment and
the wall-clock figures.  Times in the metrics are scaled to a reference
host speed by an interleaved calibration kernel (see hostspeed.py).
`--write-golden` regenerates golden.json, the reference digests every op is
checked against.  See README.md in this directory for the workloads and
metrics.
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread, set before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import json
import platform
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
GOLDEN = BENCH_DIR / "golden.json"

M_MMAP_THRESHOLD = -3  # glibc mallopt parameter
SETUP_REPS = 7
IMPORT_REPS = 7

# Run in a fresh interpreter: times the library's import there, then
# calibrates there, on the CPU the import ran on.
IMPORT_PROBE = """\
import json, sys
from time import perf_counter
t0 = perf_counter()
import insdelcode
t = perf_counter() - t0
sys.path.insert(0, sys.argv[1])
import hostspeed
print(json.dumps([t, [hostspeed.sample() for _ in range(2)]]))
"""

END_TO_END = {
    "ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms",
    "success_frac": "fraction", "setup_s": "s", "peak_rss_mb": "MB",
}

# span metrics reported as self ms per op
OP_SPANS = (
    "linear_insdel.match_dp", "linear_insdel.encode",
    "linear_insdel.fill_template", "editops.insdel_channel",
    "hamming_ecc.decode", "hamming_ecc.encode", "linalg.nullspace_vector",
    "linalg.matvec", "affine_insdel.encode", "affine_insdel.parse_blocks",
    "affine_insdel.decode", "sync_string.index_recovery", "editops.lcs",
    "separator.local_check", "separator.max_undesired", "prg.prg_generate",
)
# span calls reported per op
OP_CALLS = ("linear_insdel.match_dp", "hamming_ecc.decode",
            "separator.local_check", "separator.max_undesired")
# counters reported per op
OP_COUNTS = (
    "linear_insdel.match_dp.cells", "linear_insdel.unmatched",
    "linear_insdel.match_cost", "hamming_ecc.decode.erasures",
    "hamming_ecc.decode.failures", "gf.mul.calls",
    "affine_insdel.blocks_malformed", "separator.local_check.rejects",
    "separator.seeds_scanned",
)
# span metrics reported as self ms per traced build of the code instance
SETUP_SPANS = ("sync_string.verify_eta", "separator.local_check",
               "separator.max_undesired", "prg.prg_generate")

PER_LAYER = {
    **{f"{s}.self_ms": "ms" for s in OP_SPANS},
    **{f"{s}.calls": "count" for s in OP_CALLS},
    **{c: "count" for c in OP_COUNTS},
    "separator.accept_ratio": "ratio",
    **{f"setup.{s}.self_ms": "ms" for s in SETUP_SPANS},
    "trace.op_ms": "ms",
    "trace.overhead_frac": "fraction",
}


def _fix_mmap_threshold() -> None:
    """Serve allocations of 128 KiB and more (every 651k-symbol array) by
    mmap and return them to the system on free, so peak RSS follows live
    data.  glibc otherwise raises the threshold after the first such free
    and keeps large arrays in its heap; peak RSS then depended on heap
    history and moved by one 5 MB array from seed to seed, and a heap kept
    from trimming grew with the number of ops."""
    try:
        libc = ctypes.CDLL(None)
        libc.mallopt(M_MMAP_THRESHOLD, 128 * 1024)
    except (OSError, AttributeError):  # not glibc: keep the default
        pass


def _load_library():
    if not (SRC / "insdelcode" / "__init__.py").is_file():
        sys.exit(f"bench: no library source at {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import insdelcode
    if Path(insdelcode.__file__).resolve().parent != SRC / "insdelcode":
        sys.exit(f"bench: imported insdelcode from {insdelcode.__file__}, "
                 f"not from {SRC}")


_fix_mmap_threshold()
_load_library()

import numpy as np  # noqa: E402

import hostspeed  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class Phase:
    """Op times and failures of one measured stretch of rounds.

    cals[i] and cals[i + 1] are the calibration samples taken right before
    and right after op i.
    """

    def __init__(self):
        self.times: list[float] = []
        self.cals: list[float] = []
        self.failed = 0
        self.reasons: Counter = Counter()
        self.counts: Counter = Counter()
        self.rounds = 0

    @property
    def busy_s(self) -> float:
        return sum(self.times)

    def scaled(self) -> list[float]:
        """Op times at the reference host speed."""
        return hostspeed.scale(self.times, self.cals)


def measure(workload, inst, seed: int, golden: dict, seconds: float = 0.0,
            rounds: int = 0) -> Phase:
    """Run whole rounds of ops until `seconds` of op time have been spent,
    or exactly `rounds` rounds.  Only encode/channel/decode (or the
    construction) is timed; the golden check runs after the clock stops.
    The calibration kernel runs, untimed, before each op and after the
    last."""
    phase = Phase()
    while (phase.rounds < rounds) if rounds else (phase.busy_s < seconds):
        for op in workload.inputs(inst, seed, phase.rounds):
            phase.cals.append(hostspeed.sample())
            t0 = perf_counter()
            try:
                out = workload.run(inst, op)
            except Exception as exc:  # an op that raises is a failed op
                out, reason = None, f"raised {type(exc).__name__}: {exc}"
            phase.times.append(perf_counter() - t0)
            if out is not None:
                reason = workload.check(op, out, golden, phase.counts)
            if reason is not None:
                phase.failed += 1
                phase.reasons[reason] += 1
        phase.rounds += 1
    phase.cals.append(hostspeed.sample())
    return phase


def warm_up(workload, inst, seed: int) -> None:
    """One untimed, unchecked op, so lazy first-call costs stay out."""
    workload.run(inst, workload.inputs(inst, seed, 0)[0])


def build_timed(workload, smoke: bool, reps: int):
    """Build the code instance reps times between calibration samples;
    returns it and the median build time, at wall clock and scaled."""
    times, cals = [], [hostspeed.sample()]
    for _ in range(reps):
        t0 = perf_counter()
        inst = workload.build(smoke)
        times.append(perf_counter() - t0)
        cals.append(hostspeed.sample())
    return (inst, statistics.median(times),
            statistics.median(hostspeed.scale(times, cals)))


def import_timed(reps: int) -> tuple[float, float]:
    """Median time of the library's import in a fresh interpreter, at wall
    clock and scaled by the calibration samples taken in that interpreter
    right after the import."""
    times, scaled = [], []
    for _ in range(reps):
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(BENCH_DIR)],
            env=dict(os.environ, PYTHONPATH=str(SRC)), cwd=ROOT, check=True,
            capture_output=True, text=True).stdout
        t, cals = json.loads(out.splitlines()[-1])
        times.append(t)
        scaled.append(t * hostspeed.REFERENCE_S / statistics.mean(cals))
    return statistics.median(times), statistics.median(scaled)


def latency(times: list[float], failed: int) -> dict:
    t = np.asarray(times)
    return {"ops_per_s": len(t) / t.sum(),
            "op_p50_ms": float(np.percentile(t, 50)) * 1e3,
            "op_p90_ms": float(np.percentile(t, 90)) * 1e3,
            "success_frac": (len(t) - failed) / len(t)}


def end_to_end(workload, seed: int, seconds: float, smoke: bool,
               golden: dict) -> tuple[Phase, dict, dict]:
    """End-to-end metrics at the reference host speed, and the same
    figures at wall clock."""
    reps = 1 if smoke else SETUP_REPS
    inst, build_wall, build_s = build_timed(workload, smoke, reps)
    import_wall, import_s = import_timed(IMPORT_REPS)
    warm_up(workload, inst, seed)
    phase = measure(workload, inst, seed, golden, seconds=seconds)
    metrics = {
        **latency(phase.scaled(), phase.failed),
        "setup_s": import_s + build_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    wall = {**latency(phase.times, phase.failed),
            "setup_s": import_wall + build_wall,
            "calibration_ms": statistics.median(phase.cals) * 1e3}
    del wall["success_frac"]
    return phase, metrics, wall


def per_layer(workload, seed: int, seconds: float, smoke: bool,
              golden: dict) -> tuple[list[Phase], dict, list]:
    """Untraced ops for half the time, then the same rounds traced.

    The ratio of the two op times, both at the reference host speed, is
    the tracing overhead.  One traced
    build of the code instance gives the set-up spans.
    """
    with tracing.Tracer() as setup_trace:
        inst = workload.build(smoke)
    warm_up(workload, inst, seed)
    plain = measure(workload, inst, seed, golden, seconds=seconds / 2)
    with tracing.Tracer(workload.fields(inst)) as trace:
        traced = measure(workload, inst, seed, golden, rounds=plain.rounds)
    ops = len(traced.times)
    counts = trace.counts + traced.counts
    metrics = {f"{s}.self_ms": trace.self_s[s] * 1e3 / ops for s in OP_SPANS}
    metrics.update({f"{s}.calls": trace.calls[s] / ops for s in OP_CALLS})
    metrics.update({c: counts[c] / ops for c in OP_COUNTS})
    scanned = counts["separator.seeds_scanned"]
    metrics["separator.accept_ratio"] = ops / scanned if scanned else 0.0
    metrics.update({f"setup.{s}.self_ms": setup_trace.self_s[s] * 1e3
                    for s in SETUP_SPANS})
    metrics["trace.op_ms"] = traced.busy_s * 1e3 / ops
    metrics["trace.overhead_frac"] = (sum(traced.scaled()) /
                                      sum(plain.scaled()) - 1.0)
    absent = sorted(set(trace.absent) | set(setup_trace.absent))
    return [plain, traced], metrics, absent


def environment(seed: int) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "commit": git_commit(), "seed": seed}


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        smoke: bool = False, golden: dict | None = None) -> tuple[dict, dict]:
    """Measure one workload; returns (result line, environment line)."""
    workload = WORKLOADS[workload_name]
    if golden is None:
        golden = json.loads(GOLDEN.read_text())
    ref = golden[workload_name]
    info = {"workload": workload_name, "seconds": seconds, "trace": int(trace),
            "smoke": smoke, "env": environment(seed)}
    if trace:
        phases, values, info["absent"] = per_layer(workload, seed, seconds,
                                                   smoke, ref)
        units = PER_LAYER
    else:
        phase, values, info["wall"] = end_to_end(workload, seed, seconds,
                                                 smoke, ref)
        phases, units = [phase], END_TO_END
    attempted = sum(len(p.times) for p in phases)
    failed = sum(p.failed for p in phases)
    info["rounds"] = phases[0].rounds
    info["failures"] = dict(sum((p.reasons for p in phases), Counter()))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": values[k], "unit": u}
                          for k, u in units.items()}}
    return result, info


def write_golden() -> None:
    golden = {name: w.reference(w.build()) for name, w in WORKLOADS.items()}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="one build per set-up and a small separator grid")
    ap.add_argument("--write-golden", action="store_true",
                    help="regenerate golden.json from the library in ./src")
    args = ap.parse_args(argv)
    if args.write_golden:
        write_golden()
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    result, info = run(args.workload, args.seed, args.seconds,
                       bool(args.trace), args.smoke)
    print(json.dumps(info), flush=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
