"""Command-line front end: clone, analyze, derive, enumerate, verify.

Exit codes are a fixed function of the failure class: 0 success, 1 input
parse/validation error, 2 non-bijective seed, 3 fixed-point removal
exhausted, 4 invariance check failure, 5 verify mismatch, 6 verify width
mismatch, 64 command-line usage error. Results go to stdout, diagnostics
to stderr. SBOXFORGE_THREADS (integer >= 1) caps worker parallelism.
"""

from __future__ import annotations

import os
import random
import re
import sys
from collections import deque
from contextlib import ExitStack, contextmanager
from functools import lru_cache, partial
from itertools import chain, islice
from math import factorial
from time import perf_counter
from types import SimpleNamespace

from .analysis import CRITERIA, _invariants, analyze, compare_reports
from .core import (
    BitPermutation,
    NonBijectiveError,
    RemovalExhausted,
    SBox,
    _clone,
    _lift,
    clone_sbox,
    clone_sbox_avoiding_fixed_points,
    find_fixed_points,
)
from .formats import (
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

# Seconds a worker costs a sweep: a 2-worker pool, with the import of its
# module, made a 16-row n = 4 sweep about 50 ms slower, and a 3000-row one
# neither faster nor slower (2 cores, Python 3.11). A sweep gets one worker
# per POOL_START of estimated row time, so a sweep too short to repay its
# workers runs serially.
POOL_START = 0.060
# Rows per pool task, at most. With two tasks in flight per worker, this
# bounds the rows the parent holds while it writes them out in order.
_CHUNK_ROWS = 256

_HEX_KEY = re.compile(r"(?:[0-9a-fA-F]{2})+")


class UsageError(Exception):
    """Bad flag combination or malformed invocation."""


def _parse_key(text: str) -> bytes:
    if not _HEX_KEY.fullmatch(text):
        raise ValueError(f"key must be non-empty even-length hex, got {text!r}")
    return bytes.fromhex(text)


def _parse_permutation(text: str, n: int) -> BitPermutation:
    try:
        images = tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise ValueError(f"invalid permutation list {text!r}") from exc
    if len(images) != n:
        raise ValueError(f"permutation {text!r} has {len(images)} entries, expected {n}")
    return BitPermutation(images)


def _sigma_text(sigma: BitPermutation, sep: str) -> str:
    return sep.join(map(str, sigma.images))


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
        raise ValueError(f"cannot write {path}: {exc}") from exc
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
            result, eff1, eff2 = clone_sbox_avoiding_fixed_points(
                seed, sigma1, sigma2, max_attempts=args.max_attempts)
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


_sweep = None  # (seed, the seed's invariants or None, rank cache) of the running sweep

# Lifted table entries one sweep's rank cache may hold: 2**16 >> n ranks.
# That is every rank for n <= 6, where --all visits each rank n! times, and
# one 2**16-entry lift at n = 16, the widest s-box. A cache of 1024 ranks whatever
# n took an n = 10 --sample 3000 sweep from about 20 to 52 MB peak resident
# (2 cores, Python 3.11).
_LIFT_BUDGET = 1 << 16


def _rank(index: int, n: int) -> tuple[str, list[int]]:
    """The index-th permutation of range(n) as CSV text, and its lifted table."""
    sigma = lehmer_decode(index, n)
    return _sigma_text(sigma, " "), _lift(sigma.images)


def _init_sweep(table, seed_invariants) -> None:
    """Hold the sweep's seed, its invariants (or None) and a new rank cache, once per process."""
    global _sweep
    seed = SBox.from_table(table)
    ranks = lru_cache(maxsize=_LIFT_BUDGET >> seed.n)(partial(_rank, n=seed.n))
    _sweep = (seed, seed_invariants, ranks)


def _enumerate_row(pair):
    """A CSV row of the sweep, its clone's digest, and whether it passed (None unchecked).

    Both ranks' texts and lifts come from the sweep's rank cache; the row
    clones the seed by those lifts, unchecked, since the seed was checked
    bijective once before the sweep, and reads its fixed points, digest and
    invariants off that clone. It passes when those invariants equal the seed's.
    """
    k1, k2 = pair
    seed, seed_invariants, ranks = _sweep
    text1, rows = ranks(k1)
    text2, out = ranks(k2)
    result = _clone(seed, rows, out)
    points = find_fixed_points(result)
    prefix, digest = fingerprint(result)
    fields = [str(k1), str(k2), text1, text2, prefix, digest,
              str(len(points.fixed)), str(len(points.reverse_fixed))]
    passed = None
    if seed_invariants is not None:
        passed = _invariants(result) == seed_invariants
        fields.append("pass" if passed else "fail")
    return ",".join(fields), int(digest, 16), passed


def _enumerate_chunk(pairs):
    return [_enumerate_row(pair) for pair in pairs]


def _process_pool(**kwargs):
    """A ProcessPoolExecutor, imported here: loading it at import would cost
    every CLI call about 20 ms, and only a sweep long enough to pool needs it."""
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(**kwargs)


def _pooled_rows(pool, pairs, chunk: int, depth: int):
    """Rows of `pairs` in order, `chunk` pairs a task, at most `depth` tasks in flight."""
    pending = deque()
    for batch in iter(lambda: list(islice(pairs, chunk)), []):
        pending.append(pool.submit(_enumerate_chunk, batch))
        if len(pending) == depth:
            yield from pending.popleft().result()
    for future in pending:
        yield from future.result()


def _timed_rows(pairs, count: int) -> tuple[list, float]:
    """The first rows of a sweep of `count`, run here, and the least time one took.

    The seed's invariants have built the width's plan and cached the seed's
    criteria. The timed rows still decode and lift their sigma2, which the
    rank cache does not hold yet, so under --all, where later rows find both
    ranks cached, they take about twice the steady row time. That moves no
    worker count with 2 CPUs at n = 5 or 6, whose sweeps repay two workers
    by far, nor at n = 4, which stays serial. Up to four rows run; they stop
    once `count` rows at the least time would not repay two workers, since
    more rows could only lower it.
    """
    rows, best = [], float("inf")
    for pair in islice(pairs, 4):
        began = perf_counter()
        rows.append(_enumerate_row(pair))
        best = min(best, perf_counter() - began)
        if count * best < 2 * POOL_START:
            break
    return rows, best


def cmd_enumerate(args) -> int:
    seed = load_sbox(args.seed)
    if not seed.is_bijective():
        raise NonBijectiveError("seed s-box has duplicate entries")
    n = seed.n
    fact = factorial(n)
    if args.all:
        if args.rng_seed is not None:
            raise UsageError("--rng-seed needs --sample")
        if n > 6:
            raise UsageError(f"--all is limited to n <= 6 (seed has n = {n}); use --sample")
        count = fact * fact
        pairs = ((k1, k2) for k1 in range(fact) for k2 in range(fact))
    else:
        if args.sample < 0:
            raise UsageError("--sample must be >= 0")
        rng = random.Random(0 if args.rng_seed is None else args.rng_seed)
        count = args.sample
        pairs = ((rng.randrange(fact), rng.randrange(fact)) for _ in range(count))
    cap = min(_thread_cap(), os.cpu_count() or 1, count)

    header = "sigma1_index,sigma2_index,sigma1,sigma2,prefix,hash64,fixed_points,reverse_fixed_points"
    if args.check_invariance:
        header += ",invariance"
    digests, passes = set(), 0
    with _output(args.out) as out, ExitStack() as stack:
        sweep = (seed.table, _invariants(seed) if args.check_invariance else None)
        _init_sweep(*sweep)
        timed, workers = [], 1
        if cap > 1:
            timed, seconds = _timed_rows(pairs, count)
            workers = min(cap, count - len(timed), int(count * seconds / POOL_START))
        if workers > 1:
            pool = stack.enter_context(_process_pool(
                max_workers=workers, initializer=_init_sweep, initargs=sweep))
            chunk = max(1, min(_CHUNK_ROWS, count // (workers * 4)))
            rows = _pooled_rows(pool, pairs, chunk, 2 * workers)
        else:
            rows = map(_enumerate_row, pairs)
        out.write(header + "\n")
        for line, digest, passed in chain(timed, rows):
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


class Option:
    """One option of a command, as `parse_args` reads it and the help lists it.

    `kind` is int, str, a tuple of choices, or bool for a flag, which
    defaults to False. Exactly one of a command's `one_of` options must be
    given.
    """

    __slots__ = ("flags", "dest", "kind", "help", "default", "required", "one_of")

    def __init__(self, flags, dest, kind, help, default=None, required=False, one_of=False):
        self.flags, self.dest, self.kind, self.help = flags, dest, kind, help
        self.default, self.required, self.one_of = default, required, one_of


HELP = Option(("-h", "--help"), None, bool, "show this help message and exit")

# Per command: its help, its positionals as (dest, help), all required, and
# its options. `sboxforge NAME` runs cmd_NAME, looked up when parsing, so a
# wrapper bound to that name is the one called.
COMMANDS = {
    "clone": ("generate a clone s-box from a seed", (("seed", "seed s-box file"),), (
        Option(("--key",), "key", str, "hex key; permutations derived from it"),
        Option(("--sigma1",), "sigma1", str, "input-bit permutation, comma-separated images"),
        Option(("--sigma2",), "sigma2", str, "output-bit permutation, comma-separated images"),
        Option(("--remove-fixed-points",), "avoid_fixed_points", bool,
               "retry until the clone has no fixed or reverse fixed points"),
        Option(("--max-attempts",), "max_attempts", int,
               "cap on removal attempts (default min(n!, 10!); n! tries every class)"),
        Option(("-o", "--output"), "output", str, "write the clone here instead of stdout"),
    )),
    "analyze": ("report the four algebraic criteria", (("sbox", "s-box file"),), (
        Option(("--format",), "format", ("text", "json"), "report format (default text)", "text"),
    )),
    "derive": ("show the permutations a key produces", (), (
        Option(("--key",), "key", str, "hex key", required=True),
        Option(("--n",), "n", int, "bit width", required=True),
    )),
    "enumerate": ("sweep permutation pairs, emit CSV", (("seed", "seed s-box file"),), (
        Option(("--all",), "all", bool, "every pair (n <= 6 only)", one_of=True),
        Option(("--sample",), "sample", int, "number of random pairs", one_of=True),
        Option(("--rng-seed",), "rng_seed", int, "sampling seed (default 0; needs --sample)"),
        Option(("--check-invariance",), "check_invariance", bool,
               "compare every clone's report against the seed's"),
        Option(("--out",), "out", str, "write CSV here instead of stdout"),
    )),
    "verify": ("compare two s-boxes' criteria",
               (("seed", "first s-box file"), ("clone", "second s-box file")), ()),
}

# Two readers share this table. _fast reads the plain argvs that callers
# send: a command, then its positionals in order and its options, each at
# most once, spelled exactly as "--opt value" or "--opt=value". It reads
# them as argparse does, without loading argparse. Every other argv (an
# abbreviation, "-oVALUE", "--", a repeat, a value or positional starting
# with "-", -h, a usage error) goes to argparse itself, which keeps its
# rules and messages.


class _HelpRequested(Exception):
    """-h/--help was taken; `args[0]` is the command, or None for the top level."""


def _fast(argv: list) -> SimpleNamespace | None:
    """The namespace of a plain argv, or None where argparse might read `argv` otherwise."""
    if not argv or argv[0] not in COMMANDS:
        return None
    name = argv[0]
    _, positionals, options = COMMANDS[name]
    flags = {flag: option for option in options for flag in option.flags}
    given, words, rest = {}, [], iter(argv[1:])
    for arg in rest:
        if not arg.startswith("-"):
            words.append(arg)
            continue
        flag, eq, text = arg.partition("=")
        option = flags.get(flag)
        if option is None or option in given or option.kind is bool and eq:
            return None
        if option.kind is bool:
            given[option] = True
            continue
        text = text if eq else next(rest, "-")  # "-": a missing value, declined below
        if text.startswith("-"):
            return None
        if option.kind is int:
            try:
                text = int(text)
            except ValueError:
                return None
        elif isinstance(option.kind, tuple) and text not in option.kind:
            return None
        given[option] = text
    if len(words) != len(positionals) or any(o.required and o not in given for o in options):
        return None
    if sum(o.one_of for o in given) != any(o.one_of for o in options):  # one of a group
        return None
    values = {"command": name, "func": globals()[f"cmd_{name}"]}
    values.update(zip((dest for dest, _ in positionals), words))
    values.update((o.dest, given.get(o, False if o.kind is bool else o.default)) for o in options)
    return SimpleNamespace(**values)


def _argparse(argv: list) -> SimpleNamespace:
    """The namespace argparse makes of `argv`, its parser built from COMMANDS.

    Imported here: loading argparse costs a cold call about 8 ms, which
    only argvs that _fast declines pay.
    """
    import argparse

    class Parser(argparse.ArgumentParser):
        def error(self, message):
            raise UsageError(message)

        def print_help(self, file=None):
            # A command's parser has prog "sboxforge NAME"; the top one, "sboxforge".
            raise _HelpRequested(self.prog.partition(" ")[2] or None)

    top = Parser(prog="sboxforge")
    commands = top.add_subparsers(dest="command", required=True)
    for name, (_, positionals, options) in COMMANDS.items():
        parser = commands.add_parser(name)
        for dest, _ in positionals:
            parser.add_argument(dest)
        if any(o.one_of for o in options):
            group = parser.add_mutually_exclusive_group(required=True)
        for o in options:
            into = group if o.one_of else parser
            if o.kind is bool:
                into.add_argument(*o.flags, dest=o.dest, action="store_true")
            else:
                into.add_argument(*o.flags, dest=o.dest, default=o.default, required=o.required,
                                  type=int if o.kind is int else None,
                                  choices=o.kind if isinstance(o.kind, tuple) else None)
        parser.set_defaults(func=globals()[f"cmd_{name}"])
    return SimpleNamespace(**vars(top.parse_args(argv)))


def _show_help(args) -> int:
    sys.stdout.write(args.help)
    return EXIT_OK


def parse_args(argv) -> SimpleNamespace:
    """The namespace `sboxforge argv...` runs: `func(namespace)` is its exit code.

    Raises UsageError for an argv argparse would reject, with argparse's
    message. -h/--help yields a namespace whose func prints the help.
    """
    argv = list(argv)
    try:
        return _fast(argv) or _argparse(argv)
    except _HelpRequested as shown:
        # Imported here: compiling the help renderer would slow every cold start.
        from .usage import help_text

        return SimpleNamespace(func=_show_help, help=help_text(shown.args[0]))


# The exit code of each failure class, the first class an error is an
# instance of deciding: NonBijectiveError, like an s-box file's errors, is a ValueError.
_FAILURES = ((UsageError, EXIT_USAGE), (NonBijectiveError, EXIT_NON_BIJECTIVE),
             (RemovalExhausted, EXIT_EXHAUSTED), (ValueError, EXIT_PARSE))


def main(argv=None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        # argparse strips "--" from an option's strings, so "--opt=--" gives it the value [].
        for o in COMMANDS[args.command][2] if hasattr(args, "command") else ():
            if isinstance(getattr(args, o.dest), list):
                raise UsageError(f"argument {'/'.join(o.flags)}: expected one argument")
        return args.func(args)
    except (UsageError, RemovalExhausted, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _FAILURES if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
