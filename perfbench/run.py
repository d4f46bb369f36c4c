"""Benchmark of the lmukws keyword spotter.

Run from the root of a checkout:

    python3 perfbench/run.py --workload stream|eval|train --seed N --seconds S --trace 0|1

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  Lines
before it give the machine, the output digest and every metric by name.
A fuller record goes to ``.perfbench_out/`` in the checkout, and with
``--trace 1`` the spans too.  See README.md next to this file.
"""

import os
import sys

# One BLAS thread, before numpy is loaded; set-up subprocesses inherit it.
PIN_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in PIN_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "lmukws" / "__init__.py").is_file():
    sys.exit(f"perfbench: no lmukws sources under {SRC}; run from a checkout of the repository")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 8  # half before the timed section, half after it
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"


def quantile(values, q: int) -> float:
    """q-th percentile (inclusive method); the value itself for one sample."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(timing: workloads.Timing) -> dict:
    def latency_ms(q):  # median over windows of each window's percentile
        return statistics.median(quantile(w, q) for w in timing.latency_windows) * 1e3

    return {
        "audio_s_per_s": (timing.audio_per_unit_s * len(timing.units_s) / sum(timing.units_s),
                          "s/s"),
        "latency_p50_ms": (latency_ms(50), "ms"),
        "latency_p99_ms": (latency_ms(99), "ms"),
        "peak_rss_mb": (timing.peak_rss_mb, "MB"),
    }


def child(workload: str, seed: int, mode: str, work: Path) -> str:
    """Run one phase of this workload in a fresh interpreter; returns its stdout."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), mode, str(work)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150, check=False)
    if proc.returncode != 0:
        raise workloads.BenchError(f"{mode} failed: {proc.stderr.strip()[-800:]}")
    return proc.stdout


def time_setup(workload: str, work: Path, seed: int) -> tuple:
    """Process start to ready, in a fresh interpreter: (CPU s, wall s).

    The CPU time is the child's own clock when ready, so it covers the
    interpreter's start, the imports and the set-up, as the timed units do.
    """
    t0 = time.monotonic()
    ready_at, cpu = child(workload, seed, "--setup-probe", work).split()[-2:]
    return float(cpu), float(ready_at) - t0


def git_commit() -> str:
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
    return "unknown (not a git checkout)"


def machine(seed: int) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cpus": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_pins": {v: os.environ.get(v) for v in PIN_VARS},
        "seed": seed,
        "commit": git_commit(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--prepare", help=argparse.SUPPRESS)
    ap.add_argument("--setup-probe", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    cls = workloads.WORKLOADS[args.workload]

    if args.prepare:  # child: write the inputs into the work directory
        cls(Path(args.prepare), args.seed).prepare()
        return 0
    if args.setup_probe:  # child of time_setup: set up once, report when ready
        cls(Path(args.setup_probe), args.seed).setup()
        print(repr(time.monotonic()), repr(workloads.clock()))
        return 0
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return bench(cls(work, args.seed), args)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def bench(w, args) -> int:
    lines = [f"workload {w.name}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}"]
    info = machine(args.seed)
    lines.append("machine " + json.dumps(info))
    child(w.name, args.seed, "--prepare", w.work)
    # Set-up is sampled on both sides of the timed section, so the samples
    # span the machine's slow and fast phases as the timed units do.
    setups = [time_setup(w.name, w.work, args.seed) for _ in range(SETUP_SAMPLES // 2)]
    w.setup()
    w.load_inputs()
    # A traced run spends half its time untraced, to measure tracing overhead.
    timed_s = args.seconds / 2 if args.trace else args.seconds
    timing = w.run(timed_s)
    setups += [time_setup(w.name, w.work, args.seed) for _ in range(SETUP_SAMPLES // 2)]
    e2e = end_to_end(timing)
    e2e["setup_s"] = (statistics.median(cpu for cpu, _ in setups), "s")
    layer, trace_table = {}, []
    if args.trace:
        tracer = spans.Tracer()
        with tracer:
            tracer.install(workloads.HOOKS)
            w.setup()
            traced = w.run(timed_s, tracer)
        traced_e2e = end_to_end(traced)
    chk = w.check()  # after tracing, so the checks' own calls are not traced
    if args.trace:
        summary = tracer.summary()
        layer = spans.per_layer_metrics(summary, tracer.units, tracer.wall_s, w.macs_per_frame)
        rate, traced_rate = e2e["audio_s_per_s"][0], traced_e2e["audio_s_per_s"][0]
        layer["trace.overhead_pct"] = (100.0 * (rate / traced_rate - 1.0), "%")
        for name, (calls, incl, own) in sorted(summary.items(), key=lambda kv: -kv[1][2]):
            trace_table.append({"span": name, "calls": calls, "incl_s": incl, "self_s": own})
        OUT.mkdir(exist_ok=True)
        tracer.save(OUT / f"spans-{w.name}-seed{args.seed}.npz")

    attempted, failed = chk.attempted, chk.failed  # every timed operation is checked
    correct = failed == 0
    lines.append(f"digest {w.name} sha256:{chk.digest}")
    lines.append(f"ops attempted {attempted} failed {failed}"
                 + "".join(f"\n  failure: {n}" for n in chk.notes))
    lines.append(f"setup_s samples (CPU s) {[round(cpu, 4) for cpu, _ in setups]}, "
                 f"wall s {[round(wall, 4) for _, wall in setups]}")
    units_cpu_s = sum(timing.units_s)
    lines.append(f"timed units: CPU {units_cpu_s:.3f} s, wall {timing.wall_s:.3f} s, "
                 f"wall-clock audio_s_per_s "
                 f"{timing.audio_per_unit_s * len(timing.units_s) / timing.wall_s:.6g}")
    lines.append(f"latency samples {sum(map(len, timing.latency_windows))} "
                 f"in {len(timing.latency_windows)} windows")
    for name, (value, unit) in sorted(e2e.items()):
        lines.append(f"e2e   {name:<38} {value:14.6g} {unit}")
    if args.trace:
        for name, (value, unit) in sorted(traced_e2e.items()):
            lines.append(f"trace {name + ' (traced)':<38} {value:14.6g} {unit}"
                         f"   traced - untraced {value - e2e[name][0]:+.6g} {unit}")
        for name, (value, unit) in sorted(layer.items()):
            lines.append(f"layer {name:<38} {value:14.6g} {unit}")
        lines.append(f"spans {len(tracer.start)} over {tracer.wall_s:.3f} s; self time by span:")
        for row in trace_table:
            lines.append(f"  {row['span']:<28} calls {row['calls']:>8}  self {row['self_s']:10.4f} s"
                         f"  incl {row['incl_s']:10.4f} s")
    print("\n".join(lines))

    metrics = layer if args.trace else e2e
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    record = dict(result, workload=w.name, seconds=args.seconds, trace=args.trace,
                  machine=info, digest=chk.digest, failures=chk.notes, setup_samples=setups,
                  units_s=timing.units_s, units_wall_s=timing.wall_s,
                  end_to_end={k: v for k, (v, _) in e2e.items()}, spans=trace_table)
    (OUT / f"{w.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:  # report and fail without printing a result line
        traceback.print_exc()
        sys.exit(1)
