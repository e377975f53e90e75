#!/usr/bin/env python3
"""Self-test of the benchmark, at tiny scale (seconds once the build exists).

    python3 perfbench/selftest.py

For every workload it checks that
  * an untraced run prints every end-to-end metric of BENCHMARK.json with its
    unit, and passes its correctness checks;
  * a traced run prints every per-layer metric with its unit, and passes;
  * a run whose simulated horizon is far too short still prints a result, with
    unfinished flows counted as failed (flow_done_share below 1, failed > 0)
    and correct == false: a defect shows up in the numbers, not as a crash or
    a pass.
Exits non-zero if any check fails.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SHORT_HORIZON_US = 5


def run(workload, trace, extra=()):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", "1", "--seconds", "0",
           "--trace", str(trace), "--tiny", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    return proc.returncode, result


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []

    def check(ok, what):
        print(("ok    " if ok else "FAIL  ") + what, flush=True)
        if not ok:
            failures.append(what)

    def check_metrics(result, wanted, what):
        got = result["metrics"] if result else {}
        for m in wanted:
            ok = m["name"] in got and got[m["name"]]["unit"] == m["unit"]
            check(ok, f"{what}: prints {m['name']} in {m['unit']}")

    for w in (w["name"] for w in spec["workloads"]):
        rc, res = run(w, 0)
        check(rc == 0 and res is not None and res["correct"]
              and res["failed"] == 0, f"{w}: tiny untraced run is correct")
        check_metrics(res, spec["end_to_end"], w)

        rc, res = run(w, 1)
        check(rc == 0 and res is not None and res["correct"],
              f"{w}: tiny traced run is correct")
        check_metrics(res, spec["per_layer"], w)

        rc, res = run(w, 0, ["--horizon-us", str(SHORT_HORIZON_US)])
        check(rc == 0 and res is not None,
              f"{w}: too-short horizon still prints a result")
        if res is not None:
            done = res["metrics"]["flow_done_share"]["value"]
            check(res["failed"] > 0 and done < 1.0,
                  f"{w}: too-short horizon counts unfinished flows as failed "
                  f"({res['failed']}/{res['attempted']}, "
                  f"flow_done_share {done:.3f})")
            check(not res["correct"],
                  f"{w}: too-short horizon is reported as incorrect")

    print(f"{len(failures)} failed check(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
