"""Command-line front end: clone, analyze, derive, enumerate, verify.

Exit codes are a fixed function of the failure class: 0 success, 1 input
parse/validation error, 2 non-bijective seed, 3 fixed-point removal
exhausted, 4 invariance check failure, 5 verify mismatch, 6 verify width
mismatch, 64 command-line usage error. Results go to stdout, diagnostics
to stderr. SBOXFORGE_THREADS (integer >= 1) caps worker parallelism.
"""

from __future__ import annotations

import argparse
import os
import random
import re
import sys
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack, contextmanager
from itertools import islice
from math import factorial
from time import perf_counter

from .analysis import CRITERIA, analyze, compare_reports
from .core import (
    BitPermutation,
    CloneOptions,
    NonBijectiveError,
    RemovalExhausted,
    SBox,
    clone_sbox,
    clone_sbox_avoiding_fixed_points,
    find_fixed_points,
)
from .formats import (
    SBoxFileError,
    fingerprint,
    load_sbox,
    render_report_json,
    render_report_text,
    serialize_sbox,
)
from .keys import key_to_permutations, lehmer_decode

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_NON_BIJECTIVE = 2
EXIT_EXHAUSTED = 3
EXIT_INVARIANCE = 4
EXIT_MISMATCH = 5
EXIT_WIDTH = 6
EXIT_USAGE = 64

# Seconds a worker costs a sweep: a process pool takes 10-13 ms to start, run
# 8 trivial tasks and shut down (2 cores, Python 3.11), and its workers warm
# up on their first rows. A sweep gets one worker per POOL_START of estimated
# row time, so a sweep too short to repay its workers runs serially.
POOL_START = 0.020
# Rows per pool task, at most. With two tasks in flight per worker, this
# bounds the rows the parent holds while it writes them out in order.
_CHUNK_ROWS = 256

_HEX_KEY = re.compile(r"(?:[0-9a-fA-F]{2})+")


class UsageError(Exception):
    """Bad flag combination or malformed invocation."""


class InputError(ValueError):
    """Malformed user-supplied value (key or permutation list)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _parse_key(text: str) -> bytes:
    if not _HEX_KEY.fullmatch(text):
        raise InputError(f"key must be non-empty even-length hex, got {text!r}")
    return bytes.fromhex(text)


def _parse_permutation(text: str, n: int) -> BitPermutation:
    try:
        images = tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise InputError(f"invalid permutation list {text!r}") from exc
    if len(images) != n:
        raise InputError(f"permutation {text!r} has {len(images)} entries, expected {n}")
    try:
        return BitPermutation(images)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _sigma_text(sigma: BitPermutation, sep: str) -> str:
    return sep.join(str(v) for v in sigma.images)


def _thread_cap() -> int:
    raw = os.environ.get("SBOXFORGE_THREADS")
    if raw is None:
        return 1
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        raise UsageError(f"SBOXFORGE_THREADS must be an integer >= 1, got {raw!r}")
    return value


@contextmanager
def _output(path: str | None):
    """Stdout, or `path` opened before any work; a failed command removes a file it created."""
    if path is None:
        yield sys.stdout
        return
    created = not os.path.exists(path)
    try:
        handle = open(path, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc
    with handle:
        try:
            yield handle
        except BaseException:
            if created:
                os.remove(path)
            raise


def cmd_clone(args) -> int:
    seed = load_sbox(args.seed)
    key_mode = args.key is not None
    sigma_mode = args.sigma1 is not None or args.sigma2 is not None
    if key_mode == sigma_mode:
        raise UsageError("exactly one of --key or --sigma1/--sigma2 is required")
    if sigma_mode and (args.sigma1 is None or args.sigma2 is None):
        raise UsageError("--sigma1 and --sigma2 must be given together")
    if args.max_attempts is not None and not args.avoid_fixed_points:
        raise UsageError("--max-attempts needs --remove-fixed-points")
    if args.max_attempts is not None and args.max_attempts < 1:
        raise UsageError("--max-attempts must be >= 1")

    if key_mode:
        sigma1, sigma2 = key_to_permutations(_parse_key(args.key), seed.n)
    else:
        sigma1 = _parse_permutation(args.sigma1, seed.n)
        sigma2 = _parse_permutation(args.sigma2, seed.n)

    with _output(args.output) as out:
        if args.avoid_fixed_points:
            opts = CloneOptions(max_attempts=args.max_attempts)
            result, eff1, eff2 = clone_sbox_avoiding_fixed_points(seed, sigma1, sigma2, opts)
        else:
            result, eff1, eff2 = clone_sbox(seed, sigma1, sigma2), sigma1, sigma2
        out.write(serialize_sbox(result))
    print(f"sigma1={_sigma_text(eff1, ',')}", file=sys.stderr)
    print(f"sigma2={_sigma_text(eff2, ',')}", file=sys.stderr)
    return EXIT_OK


def cmd_analyze(args) -> int:
    report = analyze(load_sbox(args.sbox))
    render = render_report_json if args.format == "json" else render_report_text
    sys.stdout.write(render(report))
    return EXIT_OK


def cmd_derive(args) -> int:
    if not 2 <= args.n <= 16:
        raise UsageError("--n must be in [2, 16]")
    sigma1, sigma2 = key_to_permutations(_parse_key(args.key), args.n)
    print(f"sigma1={_sigma_text(sigma1, ',')}")
    print(f"sigma2={_sigma_text(sigma2, ',')}")
    return EXIT_OK


_sweep_seed = None  # (seed, seed report or None) of the running sweep


def _init_sweep(table, seed_report) -> None:
    """Hold the sweep's seed and its report (or None) for _enumerate_row, once per process."""
    global _sweep_seed
    _sweep_seed = (SBox.from_table(table), seed_report)


def _enumerate_row(pair):
    k1, k2 = pair
    seed, seed_report = _sweep_seed
    sigma1 = lehmer_decode(k1, seed.n)
    sigma2 = lehmer_decode(k2, seed.n)
    result = clone_sbox(seed, sigma1, sigma2)
    report = None if seed_report is None else analyze(result)
    points = find_fixed_points(result) if report is None else report.fixed_points
    prefix, digest = fingerprint(result)
    fields = [str(k1), str(k2), _sigma_text(sigma1, " "), _sigma_text(sigma2, " "), prefix, digest,
              str(len(points.fixed)), str(len(points.reverse_fixed))]
    passed = None
    if report is not None:
        passed = compare_reports(seed_report, report).equal
        fields.append("pass" if passed else "fail")
    return ",".join(fields), digest, passed


def _enumerate_chunk(pairs):
    return [_enumerate_row(pair) for pair in pairs]


def _pooled_rows(pool, pairs, chunk: int, depth: int):
    """Rows of `pairs` in order, `chunk` pairs a task, at most `depth` tasks in flight."""
    pending = deque()
    for batch in iter(lambda: list(islice(pairs, chunk)), []):
        pending.append(pool.submit(_enumerate_chunk, batch))
        if len(pending) == depth:
            yield from pending.popleft().result()
    for future in pending:
        yield from future.result()


def cmd_enumerate(args) -> int:
    seed = load_sbox(args.seed)
    if not seed.is_bijective():
        raise NonBijectiveError("seed s-box has duplicate entries")
    n = seed.n
    fact = factorial(n)
    if args.all:
        if n > 5:
            raise UsageError(f"--all is limited to n <= 5 (seed has n = {n}); use --sample")
        count = fact * fact
        pairs = ((k1, k2) for k1 in range(fact) for k2 in range(fact))
    else:
        if args.sample < 0:
            raise UsageError("--sample must be >= 0")
        rng = random.Random(args.rng_seed)
        count = args.sample
        pairs = ((rng.randrange(fact), rng.randrange(fact)) for _ in range(count))
    cap = min(_thread_cap(), os.cpu_count() or 1, count)

    header = "sigma1_index,sigma2_index,sigma1,sigma2,prefix,hash64,fixed_points,reverse_fixed_points"
    if args.check_invariance:
        header += ",invariance"
    digests, passes = set(), 0
    with _output(args.out) as out, ExitStack() as stack:
        # The seed's report and one clone of it, timed, estimate a row's cost.
        began = perf_counter()
        sweep = (seed.table, analyze(seed) if args.check_invariance else None)
        workers = cap
        if cap > 1:
            clone_sbox(seed, BitPermutation.identity(n), BitPermutation.identity(n))
            workers = min(cap, int(count * (perf_counter() - began) / POOL_START))
        if workers > 1:
            pool = stack.enter_context(ProcessPoolExecutor(
                max_workers=workers, initializer=_init_sweep, initargs=sweep))
            chunk = max(1, min(_CHUNK_ROWS, count // (workers * 4)))
            rows = _pooled_rows(pool, pairs, chunk, 2 * workers)
        else:
            _init_sweep(*sweep)
            rows = map(_enumerate_row, pairs)
        out.write(header + "\n")
        for line, digest, passed in rows:
            out.write(line + "\n")
            digests.add(digest)
            passes += bool(passed)

    summary = f"rows={count} distinct={len(digests)}"
    if args.check_invariance:
        summary += f" invariance_pass={passes}"
    print(summary, file=sys.stderr)
    if args.check_invariance and passes < count:
        return EXIT_INVARIANCE
    return EXIT_OK


def cmd_verify(args) -> int:
    seed = load_sbox(args.seed)
    clone = load_sbox(args.clone)
    if seed.n != clone.n:
        print(f"width mismatch: {seed.n} vs {clone.n}", file=sys.stderr)
        return EXIT_WIDTH
    comparison = compare_reports(analyze(seed), analyze(clone))
    for name in ("bijective",) + CRITERIA:
        hit = any(d == name or d.startswith(name + ".") for d in comparison.differences)
        print(f"{name}: {'differs' if hit else 'equal'}")
    if comparison.equal:
        print("result: match")
        return EXIT_OK
    print("result: mismatch")
    print("differences: " + " ".join(comparison.differences))
    return EXIT_MISMATCH


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sboxforge", description="Clone s-box generation and analysis")
    commands = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    clone = commands.add_parser("clone", help="generate a clone s-box from a seed")
    clone.add_argument("seed", help="seed s-box file")
    clone.add_argument("--key", help="hex key; permutations derived from it")
    clone.add_argument("--sigma1", help="input-bit permutation, comma-separated images")
    clone.add_argument("--sigma2", help="output-bit permutation, comma-separated images")
    clone.add_argument("--remove-fixed-points", action="store_true", dest="avoid_fixed_points",
                       help="retry until the clone has no fixed or reverse fixed points")
    clone.add_argument("--max-attempts", type=int, default=None,
                       help="cap on removal attempts (default n!, which tries every class)")
    clone.add_argument("-o", "--output", help="write the clone here instead of stdout")
    clone.set_defaults(func=cmd_clone)

    analyze_cmd = commands.add_parser("analyze", help="report the four algebraic criteria")
    analyze_cmd.add_argument("sbox", help="s-box file")
    analyze_cmd.add_argument("--format", choices=("text", "json"), default="text")
    analyze_cmd.set_defaults(func=cmd_analyze)

    derive = commands.add_parser("derive", help="show the permutations a key produces")
    derive.add_argument("--key", required=True, help="hex key")
    derive.add_argument("--n", type=int, required=True, help="bit width")
    derive.set_defaults(func=cmd_derive)

    enumerate_cmd = commands.add_parser("enumerate", help="sweep permutation pairs, emit CSV")
    enumerate_cmd.add_argument("seed", help="seed s-box file")
    mode = enumerate_cmd.add_mutually_exclusive_group(required=True)
    mode.add_argument("--all", action="store_true", help="every pair (n <= 5 only)")
    mode.add_argument("--sample", type=int, help="number of random pairs")
    enumerate_cmd.add_argument("--rng-seed", type=int, default=0, help="sampling seed")
    enumerate_cmd.add_argument("--check-invariance", action="store_true",
                               help="compare every clone's report against the seed's")
    enumerate_cmd.add_argument("--out", help="write CSV here instead of stdout")
    enumerate_cmd.set_defaults(func=cmd_enumerate)

    verify = commands.add_parser("verify", help="compare two s-boxes' criteria")
    verify.add_argument("seed", help="first s-box file")
    verify.add_argument("clone", help="second s-box file")
    verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NonBijectiveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NON_BIJECTIVE
    except RemovalExhausted as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EXHAUSTED
    except (SBoxFileError, InputError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
