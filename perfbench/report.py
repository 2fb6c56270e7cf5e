"""Print every end-to-end and per-layer metric of the benchmark, by name with its unit.

    python3 perfbench/report.py [--write-baseline]

For each workload it runs perfbench/run.py twice with seed 1 for
BENCHMARK.json's run_seconds: untraced (end-to-end metrics) and traced
(per-layer metrics). The tracing overhead it reports is the untraced run's
ops_per_s over the traced run's, minus one. It refuses to report, and exits
1, when any run's output checks failed. --write-baseline records the numbers
in perfbench/baseline.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("clone-keyed", "sweep-invariance", "audit-wide")
SEED = 1


def run(workload: str, seconds: float, trace: int) -> tuple[dict, dict]:
    """(last-line result, detail line) of one benchmark run; exits 1 if it failed."""
    done = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                           "--seed", str(SEED), "--seconds", str(seconds), "--trace", str(trace)],
                          capture_output=True, text=True, timeout=900)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"{workload} trace={trace}: run failed (exit {done.returncode})\n{done.stderr}")
    result = json.loads(lines[-1])
    detail = json.loads(next(line for line in lines if line.startswith("# "))[2:])
    if not result["correct"]:
        failures = "\n".join(line for line in lines if line.startswith("FAILED"))
        sys.exit(f"{workload} trace={trace}: {result['failed']} of {result['attempted']} ops failed "
                 f"their checks; refusing to report\n{failures}")
    return result, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write-baseline", action="store_true")
    args = parser.parse_args(argv)

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as handle:
        seconds = json.load(handle)["run_seconds"]
    baseline = {"seed": SEED, "seconds": seconds, "python": platform.python_version(),
                "cpus": os.cpu_count(), "processor": platform.processor() or platform.machine(),
                "workloads": {}}
    for workload in WORKLOADS:
        plain, plain_detail = run(workload, seconds, 0)
        traced, traced_detail = run(workload, seconds, 1)
        overhead = plain["metrics"]["ops_per_s"]["value"] / traced_detail["ops_per_s"] - 1
        print(f"== {workload}: {plain['attempted']} ops in {plain_detail['passes']} pass(es), "
              f"tail is p{plain_detail['tail_percentile']} of {plain_detail['tail_samples']} ops, "
              f"tracing overhead {overhead:+.1%} ({traced_detail['spans']} spans)")
        for kind, result in (("end-to-end", plain), ("per-layer", traced)):
            for name, metric in result["metrics"].items():
                print(f"{workload:17s} {kind:10s} {name:26s} {metric['value']:14.6f} {metric['unit']}")
        baseline["workloads"][workload] = {
            "end_to_end": plain["metrics"], "per_layer": traced["metrics"],
            "tail_percentile": plain_detail["tail_percentile"],
            "tail_samples": plain_detail["tail_samples"], "tracing_overhead": overhead,
        }
    if args.write_baseline:
        with open(os.path.join(HERE, "baseline.json"), "w", encoding="utf-8") as handle:
            json.dump(baseline, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
