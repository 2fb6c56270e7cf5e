"""Outside-in benchmark of the sboxforge CLI.

    python3 perfbench/run.py --workload clone-keyed --seed 1 --seconds 30 --trace 0

Drives `sboxforge.cli.main(argv)` in-process as a closed loop with one
client, on s-box files generated from --seed. The op list is fixed by the
workload, the seed and --seconds, and sized so that the workload's fixed
number of passes over it fills most of --seconds on the baseline machine.
Every op execution runs in a child forked from the benchmark process right
after `import sboxforge.cli`, so, as with separate CLI calls, no state one
command leaves behind can speed up another. A fixed calibration loop runs
in that child just before and just after the command, and each command's
time is scaled to the speed at which the loop takes its reference time
(see calibration.py), so the shared machine's drift cancels. Each op is
timed by the median of its passes. Every result is then checked against an
independent reference. With
--trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 timing wrappers are bound to the program's public functions and
the line carries the per-layer metrics instead. Run it from a checkout of
the repository; scratch files go to .perfbench-work/ at its root.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import pickle
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests"), HERE]

import calibration  # noqa: E402
import workloads  # noqa: E402
from stats import tail  # noqa: E402
from workloads import Result  # noqa: E402

WORK = ".perfbench-work"           # relative to ROOT, the working directory of a run
# Times the import between two runs of the calibration loop and prints the
# resident pages it adds. Resident pages, not ru_maxrss: after exec,
# ru_maxrss still holds the forking process's peak.
IMPORT_PROBE = ("import sys, time; sys.path[:0] = ['src', 'perfbench']; "
                "from calibration import calibrate, warm; "
                "rss = lambda: int(open('/proc/self/statm').read().split()[1]); "
                "warm(); c = calibrate(); m = rss(); "
                "t = time.perf_counter(); import sboxforge.cli; t = time.perf_counter() - t; "
                "print(t, (c + calibrate()) / 2, rss() - m)")
SETUP_REPEATS = 15


def import_probe() -> tuple[float, int]:
    """Seconds one fresh interpreter takes to import sboxforge.cli, at the
    calibration loop's reference speed, and the KiB of RSS the import adds."""
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], check=True,
                          capture_output=True, text=True, timeout=60)
    seconds, loop, pages = done.stdout.split()
    return (calibration.scaled(float(seconds), float(loop)),
            int(pages) * os.sysconf("SC_PAGE_SIZE") // 1024)


def execute(cli, op) -> tuple[float, Result]:
    """Run one op; the timer covers only cli.main."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(op.argv))
    except Exception as exc:   # a crash is a failed op, not a failed benchmark
        code = f"raised {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    output = None
    if op.output is not None and os.path.exists(op.output):
        with open(op.output, encoding="utf-8") as handle:
            output = handle.read()
        os.remove(op.output)
    return elapsed, Result(code, out.getvalue(), err.getvalue(), output)


def peak_rss_kib() -> int:
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


def execute_cold(cli, op, tracer=None) -> tuple[float, Result, int, float]:
    """Run one op in a child forked from this process, as in a fresh CLI process.

    Returns the latency, the result, the KiB by which the peak RSS of the
    child and of its worker processes grew over the child's RSS at the fork,
    and the mean time of the calibration loop run in the child just before
    and just after the op. A tracer's spans from the child are added to the
    tracer.
    """
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_end)
            start_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            if tracer is not None:
                tracer.reset()
            calibration.warm()
            loop = calibration.calibrate()
            elapsed, result = execute(cli, op)
            loop = (loop + calibration.calibrate()) / 2
            spans = tracer.spans if tracer is not None else []
            with os.fdopen(write_end, "wb") as pipe:
                pickle.dump((elapsed, result, peak_rss_kib() - start_kib, loop, spans), pipe)
            status = 0
        finally:
            os._exit(status)
    os.close(write_end)
    with os.fdopen(read_end, "rb") as pipe:
        payload = pipe.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not payload:
        return 0.0, Result(f"op process ended with wait status {status}", "", "", None), 0, 1.0
    elapsed, result, grown_kib, loop, spans = pickle.loads(payload)
    if tracer is not None:
        tracer.spans.extend(spans)
    return elapsed, result, grown_kib, loop


def run_passes(cli, ops, passes: int, tracer=None):
    """`passes` whole passes over `ops`, every op execution in a fresh child.

    Returns per-op timings (latency and calibration loop time, as pairs)
    and results, pass by pass, the largest RSS
    growth of one op execution (KiB), and, in an untraced run,
    SETUP_REPEATS import probes taken at even steps between ops so that
    their median sees the same machine as the ops do.
    """
    timings = [[] for _ in ops]
    results = [[] for _ in ops]
    grown_kib = 0
    steps = passes * len(ops)
    probes = set() if tracer is not None else \
        {(2 * j + 1) * steps // (2 * SETUP_REPEATS) for j in range(SETUP_REPEATS)}
    setup = []
    if probes:
        import_probe()   # warm-up: compiles bytecode in a fresh checkout
    for step in range(steps):
        i = step % len(ops)
        if tracer is not None:
            tracer.op = step
        elapsed, result, grown, loop = execute_cold(cli, ops[i], tracer)
        timings[i].append((elapsed, loop))
        results[i].append(result)
        grown_kib = max(grown_kib, grown)
        if step in probes:
            setup.append(import_probe())
    return timings, results, grown_kib, setup


def check_all(ops, results) -> list[str]:
    """Reasons for every failed op execution; later passes must repeat the first byte for byte."""
    from checks import check   # needs tests/oracles.py, present only in a checkout

    failures = []
    for i, (op, runs) in enumerate(zip(ops, results)):
        reason = check(op, runs[0])
        for p, r in enumerate(runs):
            if reason is not None:
                failures.append(f"op {i} pass {p}: {reason}")
            elif r != runs[0]:
                failures.append(f"op {i} pass {p}: result differs from pass 0")
    return failures


def end_to_end(ops, timings, setup, grown_kib, failed) -> tuple[dict, dict]:
    """Every op is timed by the median of its passes, each at the calibration
    loop's reference speed; rates are per second of those times.

    peak_rss_mb is the program's memory above a bare interpreter: the median
    RSS that importing sboxforge.cli adds, plus the largest RSS growth of one
    op execution, its worker processes included.
    """
    typical = [statistics.median(calibration.scaled(*t) for t in samples) for samples in timings]
    spent = sum(typical)
    tail_value, percentile, count = tail(typical)
    attempted = sum(len(samples) for samples in timings)
    import_kib = statistics.median(kib for _, kib in setup) if setup else 0
    metrics = {
        "setup_s": (statistics.median(seconds for seconds, _ in setup) if setup else 0.0, "s"),
        "ops_per_s": (len(ops) / spent, "1/s"),
        "op_p50_ms": (statistics.median(typical) * 1000, "ms"),
        "op_tail_ms": (tail_value * 1000, "ms"),
        "rows_per_s": (sum(workloads.rows(op) for op in ops) / spent, "1/s"),
        "correct_ratio": ((attempted - failed) / attempted, "ratio"),
        "peak_rss_mb": ((import_kib + grown_kib) / 1024, "MB"),
    }
    speed = statistics.median(calibration.REFERENCE_S / loop for samples in timings
                              for _, loop in samples)
    return metrics, {"tail_percentile": percentile, "tail_samples": count, "machine_speed": speed}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "sboxforge", "cli.py")) \
            or not os.path.isfile(os.path.join(ROOT, "tests", "oracles.py")):
        print(f"error: {ROOT} is not a sboxforge checkout (src/sboxforge, tests/oracles.py)",
              file=sys.stderr)
        return 2
    os.chdir(ROOT)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    directory = os.path.join(WORK, tag)
    shutil.rmtree(directory, ignore_errors=True)
    os.makedirs(directory)
    try:
        return measure(args, directory, tag)
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def measure(args, directory: str, tag: str) -> int:
    ops = workloads.generate(args.workload, args.seed, args.seconds, directory)
    threads = workloads.threads(args.workload)
    if threads is None:
        os.environ.pop("SBOXFORGE_THREADS", None)
    else:
        os.environ["SBOXFORGE_THREADS"] = str(threads)

    from sboxforge import cli

    passes = workloads.PASSES[args.workload]
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer(directory)
        tracer.install()
    timings, results, grown_kib, setup = run_passes(cli, ops, passes, tracer)

    failures = check_all(ops, results)
    metrics, detail = end_to_end(ops, timings, setup, grown_kib, len(failures))
    detail.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
                  ops=len(ops), passes=passes,
                  op_seconds=sum(e for samples in timings for e, _ in samples),
                  python=sys.version.split()[0], cpus=os.cpu_count())
    if tracer is not None:
        from tracing import layer_metrics
        tracer.collect_workers()
        spans_path = os.path.join(WORK, f"{tag}.spans.jsonl.gz")
        tracer.write(spans_path)
        detail.update(spans=len(tracer.spans), spans_file=spans_path,
                      ops_per_s=metrics["ops_per_s"][0])
        metrics = layer_metrics(tracer.spans, len(ops) * passes, threads or 1)

    for failure in failures[:20]:
        print(f"FAILED {failure}")
    print(f"# {json.dumps(detail, sort_keys=True)}")
    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:14.6f} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(ops) * passes,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
