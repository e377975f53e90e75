#!/usr/bin/env python3
"""Benchmark of the ndpsim simulator: builds perfbench from source, runs one
workload and prints the result as one JSON object on the last line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout.  The build goes to .bench_build/.
--trace 0 runs untraced units in fresh processes for about --seconds and
prints the end-to-end metrics; --trace 1 runs traced units (each preceded by
an untraced one) and prints the per-layer metrics.  Workloads, metrics and
the noise findings behind the design are in perfbench/README.md.
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"

# Untraced units per process.  Short units are repeated so that one run
# takes many samples; the k=32 permutation is one unit per process.
REPS = {
    "perm_k32_ndp": 1,
    "web_open_k8_dctcp": 3,
    "incast_campaign_k4_ndp": 10,
}
MIN_PROCESSES = 3
PROCESS_TIMEOUT_S = 170

END_TO_END = {
    "wall_s": "s",
    "goodput_mb_per_cpu_s": "MB/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "flow_done_share": "share",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the perfbench target; returns the binary."""
    if not (BUILD / "Makefile").exists():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(BUILD),
             "-DCMAKE_BUILD_TYPE=Release"],
            cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", str(BUILD), "--target", "perfbench", "-j", "4"],
        cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr, check=True)
    return BUILD / "perfbench"


def run_process(binary, args):
    """One perfbench process; returns its JSON lines (one per unit)."""
    proc = subprocess.run([str(binary)] + args, cwd=ROOT, capture_output=True,
                          text=True, timeout=PROCESS_TIMEOUT_S)
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"perfbench exited with {proc.returncode}")
    return [json.loads(line) for line in proc.stdout.splitlines() if line]


def unit_ok(u):
    return not u["error"] and not u["checks"]


def measure(binary, a, traced):
    """Run processes for about --seconds (at least MIN_PROCESSES untraced,
    or one traced); returns the per-process unit lists."""
    work = BUILD / "work"
    work.mkdir(parents=True, exist_ok=True)
    common = ["--workload", a.workload, "--seed", str(a.seed),
              "--work-dir", str(work)]
    if a.tiny:
        common.append("--tiny")
    if a.horizon_us is not None:
        common += ["--horizon-us", str(a.horizon_us)]
    least = 1 if traced else MIN_PROCESSES
    processes = []
    start = time.monotonic()
    while True:
        # Past the minimum, start another process only if it is expected to
        # end by the deadline (give or take half a process).
        elapsed = time.monotonic() - start
        per_process = elapsed / max(len(processes), 1)
        if len(processes) >= least and elapsed + per_process / 2 > a.seconds:
            break
        if traced:
            trace_out = BUILD / f"trace-{a.workload}-{a.seed}-{len(processes)}.jsonl"
            args = common + ["--traced", "--trace-out", str(trace_out)]
        else:
            args = common + ["--reps", str(REPS[a.workload])]
        units = run_process(binary, args)
        for u in units:
            log(f"  {a.workload} seed {a.seed}: setup {u['setup_s']:.4f} s, "
                f"wall {u['wall_s']:.4f} s, cpu {u['cpu_s']:.4f} s, "
                f"{u['payload_mb']:.1f} MB, {u['failed']}/{u['started']} "
                f"unfinished, digest {u['digest']}"
                + (f", ERROR {u['error']}" if u["error"] else "")
                + "".join(f", FAILED CHECK {c}" for c in u["checks"]))
        processes.append(units)
        if not all(unit_ok(u) for u in units):
            break  # a failed run is reported, not repeated
    shutil.rmtree(work, ignore_errors=True)
    return processes


def summarize(processes, traced):
    units = [u for p in processes for u in p]
    started = sum(u["started"] for u in units)
    failed = sum(u["failed"] for u in units)
    digests = {u["digest"] for u in units}
    correct = all(unit_ok(u) for u in units) and len(digests) == 1
    if len(digests) != 1:
        log(f"FAILED CHECK: one seed gave different digests {sorted(digests)}")
    if traced:
        layers = units[0]["layers"]
        out = {n: {"value": statistics.median(u["layers"][n]["value"]
                                              for u in units),
                   "unit": layers[n]["unit"]}
               for n in sorted(layers)}
    else:
        last_of_process = [p[-1] for p in processes]
        values = {
            "wall_s": statistics.median(u["wall_s"] for u in units),
            "goodput_mb_per_cpu_s": statistics.median(
                u["payload_mb"] / u["cpu_s"] for u in units),
            "setup_s": statistics.median(u["setup_s"] for u in units),
            "peak_rss_mb": statistics.median(
                u["peak_rss_mb"] for u in last_of_process),
            "flow_done_share": 1.0 - failed / max(started, 1),
        }
        out = {n: {"value": values[n], "unit": END_TO_END[n]}
               for n in END_TO_END}
    return {"correct": correct, "attempted": max(started, 1),
            "failed": failed, "metrics": out}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(REPS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    # Self-test knobs (perfbench/selftest.py): shrink every workload, or
    # cut the simulated horizon short to force unfinished flows.
    ap.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--horizon-us", type=float, help=argparse.SUPPRESS)
    a = ap.parse_args()
    try:
        binary = build()
        processes = measure(binary, a, traced=a.trace == 1)
        result = summarize(processes, traced=a.trace == 1)
    except (subprocess.SubprocessError, OSError, RuntimeError,
            ValueError) as e:
        log(f"perfbench: {e}")
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
