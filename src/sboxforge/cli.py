"""Command-line front end: clone, analyze, derive, enumerate, verify.

Exit codes are a fixed function of the failure class: 0 success, 1 input
parse/validation error, 2 non-bijective seed, 3 fixed-point removal
exhausted, 4 invariance check failure, 5 verify mismatch, 6 verify width
mismatch, 7 a pool worker ended before its rows came back (killed from
outside), 64 command-line usage error, 129 hung up (SIGHUP), 130
interrupted (Ctrl-C), 143 terminated (SIGTERM): each of the three signals
ends a command through Terminated. Results go to stdout, diagnostics to
stderr; formats writes both. SBOXFORGE_THREADS (integer >= 1) caps worker
parallelism. It and each --sigma1/--sigma2 item are read by formats._entry,
as an s-box file's entries are: ASCII, no "_", decimal or 0x hex.

A cold call loads sboxforge's modules, which import from the standard
library only __future__, array, collections, contextlib, errno, functools,
itertools, math, operator, os, stat, sys, time and types, with what those
import, and the interpreter's own SHA-256 and _signal, which it loaded at
start. The rest loads where it runs: argparse and the help for an argv
that _fast declines (usage), random for --sample, multiprocessing with the
pickle, selectors, socket and subprocess modules it imports for a sweep
that pools, and the report and Boolean-function API for a library caller
alone (library). No command imports fractions, decimal or re: analyze
renders its report from integer ratios, and verify and sweeps compare
integer moments.
"""

from __future__ import annotations

import _signal  # the interpreter's own, loaded at start: the signal module costs a cold call 0.7 ms
import os
import sys
from array import array
from collections import defaultdict, deque
from contextlib import closing, contextmanager
from functools import lru_cache, partial
from itertools import chain, islice, repeat
from math import factorial, inf
from time import perf_counter
from types import SimpleNamespace

from .analysis import CRITERIA, _differences, _invariants, _report
from .core import (
    BitPermutation,
    NonBijectiveError,
    RemovalExhausted,
    _check_clone,
    _clone,
    _fixed_counts,
    _lift,
    _planes,
    clone_sbox,
    clone_sbox_avoiding_fixed_points,
)
from .formats import (
    _entry,
    _note,
    _output,
    _sigma_pair,
    _sigma_text,
    _sweep_csv,
    _sweep_summary,
    _verify_text,
    _width_note,
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
EXIT_WORKER = 7
EXIT_USAGE = 64
EXIT_HANGUP = 129  # 128 + SIGHUP
EXIT_INTERRUPTED = 130
EXIT_TERMINATED = 143  # 128 + SIGTERM
# The signals that end a command, where the platform has them: each raises Terminated.
_ENDINGS = tuple(getattr(_signal, name) for name in ("SIGINT", "SIGTERM", "SIGHUP")
                 if hasattr(_signal, name))

# Seconds of rows left, at the row time, per worker; fewer than two workers
# run serially. Measured on 2 cores (Python 3.11.7), whole processes with
# --check-invariance: a 2-worker pool cost about 0.06 s, and repaid itself
# from about 0.3 s of rows at n = 8, where the row time is a sampled row's
# own. The n = 5 --all sweep, whose row time is about twice a row's share
# of a large batch, read 0.28-0.57 s in 41 of 42 runs (0.76 s once), and
# the pool lost 0.04-0.06 s there; sampled n = 8 and n = 10 sweeps of 3000
# and 500 rows read 0.64-1.5 s. So two workers start from 0.6 s.
POOL_START = 0.3
# Seconds of rows per batch, at most, at the row time. A batch is one call
# of _enumerate_rows, serial or in a pool worker, and one write of the CSV.
# A sweep finds that its output has gone, a reader closing its pipe, only
# when it writes, and an n = 16 row with --check-invariance takes about
# 0.3 s (0.31-0.45 s warm on 2 cores, Python 3.11.7; 0.33-0.42 s on 3.12
# and 3.13).
_BATCH_SECONDS = 0.25
# The widest seed that --all takes, and so the widths whose ranks _rank caches.
_ALL_MAX_N = 6

class UsageError(Exception):
    """Bad flag combination or malformed invocation."""


class WorkerLost(Exception):
    """A pool worker ended, killed from outside (the OOM killer, kill -9),
    before its rows came back."""


class Terminated(SystemExit):
    """Ctrl-C (SIGINT), SIGTERM or SIGHUP came: raised where the command
    runs, so that one path removes a created -o/--out file, stops a pool and
    prints one line. Its code, 128 + the signal number, is the command's
    exit code. As a SystemExit it ends quietly a forked pool worker that it
    reaches, where a KeyboardInterrupt would print a traceback."""


def _terminate(signum, frame):
    raise Terminated(128 + signum)  # EXIT_TERMINATED or EXIT_HANGUP


@contextmanager
def _signals_end_the_command():
    """Within the block, SIGINT, SIGTERM and SIGHUP raise Terminated. None is
    set off the main thread, where Python runs no handler, and none where a
    signal is ignored, as nohup ignores SIGHUP and a shell may ignore SIGINT
    in a background job. The previous handlers come back after the block."""
    previous = {}
    try:
        for signum in _ENDINGS:
            if _signal.getsignal(signum) not in (_signal.SIG_IGN, None):  # None: not set by Python
                previous[signum] = _signal.signal(signum, _terminate)
    except ValueError:  # off the main thread
        pass
    try:
        yield
    finally:
        for signum, handler in previous.items():
            _signal.signal(signum, handler)


def _parse_key(text: str) -> bytes:
    # Pairs of hex digits and nothing else, read with no regex, whose compile
    # would cost every call about 0.2 ms: fromhex alone skips whitespace, and
    # isalnum alone takes non-ASCII digits.
    if text.isascii() and text.isalnum():
        try:
            return bytes.fromhex(text)
        except ValueError:
            pass
    raise ValueError(f"key must be non-empty even-length hex, got {text!r}")


def _parse_permutation(text: str, n: int) -> BitPermutation:
    try:
        images = tuple(map(_entry, text.split(",")))  # each item as an s-box file entry
    except ValueError as exc:
        raise ValueError(f"invalid permutation list {text!r}") from exc
    if len(images) != n:
        raise ValueError(f"permutation {text!r} has {len(images)} entries, expected {n}")
    return BitPermutation(images)


def _thread_cap() -> int:
    raw = os.environ.get("SBOXFORGE_THREADS", "1")  # unset: serial
    try:
        value = _entry(raw)  # as an s-box file entry
    except ValueError:
        value = 0
    if value < 1:
        raise UsageError(f"SBOXFORGE_THREADS must be an integer >= 1, got {raw!r}")
    return value


def _cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def cmd_clone(args) -> int:
    # The command line is checked before the seed is read, so a malformed
    # one exits 64 whatever the file holds.
    key_mode = args.key is not None
    sigma_mode = args.sigma1 is not None or args.sigma2 is not None
    if key_mode == sigma_mode:
        raise UsageError("exactly one of --key or --sigma1/--sigma2 is required")
    if sigma_mode and (args.sigma1 is None or args.sigma2 is None):
        raise UsageError("--sigma1 and --sigma2 must be given together")
    if args.max_attempts is not None and not args.remove_fixed_points:
        raise UsageError("--max-attempts needs --remove-fixed-points")
    if args.max_attempts is not None and args.max_attempts < 1:
        raise UsageError("--max-attempts must be >= 1")

    seed = load_sbox(args.seed)
    if key_mode:
        sigma1, sigma2 = key_to_permutations(_parse_key(args.key), seed.n)
    else:
        sigma1 = _parse_permutation(args.sigma1, seed.n)
        sigma2 = _parse_permutation(args.sigma2, seed.n)

    with _output(args.output) as write:
        if args.remove_fixed_points:
            result, eff1, eff2 = clone_sbox_avoiding_fixed_points(
                seed, sigma1, sigma2, max_attempts=args.max_attempts)
        else:
            result, eff1, eff2 = clone_sbox(seed, sigma1, sigma2), sigma1, sigma2
        write(serialize_sbox(result))
    _note(_sigma_pair(eff1, eff2))
    return EXIT_OK


def cmd_analyze(args) -> int:
    report = _report(load_sbox(args.sbox))
    render = render_report_json if args.format == "json" else render_report_text
    with _output(None) as write:
        write(render(report))
    return EXIT_OK


def cmd_derive(args) -> int:
    if not 2 <= args.n <= 16:
        raise UsageError("--n must be in [2, 16]")
    sigma1, sigma2 = key_to_permutations(_parse_key(args.key), args.n)
    with _output(None) as write:
        write(_sigma_pair(sigma1, sigma2) + "\n")
    return EXIT_OK


@lru_cache(maxsize=sum(map(factorial, range(2, _ALL_MAX_N + 1))))  # every rank of each width --all takes
def _rank(index: int, n: int) -> tuple[str, list[int] | bytes]:
    """The index-th permutation of range(n) as CSV text, and its lifted table.

    One cache per process, shared by its sweeps, holds every rank at
    n <= _ALL_MAX_N, the widths --all takes, where each rank recurs 2 * n! times.
    Above that only --sample runs, and its rows call _rank.__wrapped__,
    caching none. A sample of k rows draws 2k ranks of n!, so repeats are
    common when 2k nears n!: about 41% of the draws of --sample 3000 repeat
    an earlier rank at n = 7, 7% at n = 8 and 0.1% at n = 10. But a cached
    lift holds its 2**n entries for the whole process: a cache of 1024 lifts
    took an n = 10 --sample 3000 from 20 to 52 MB.
    """
    sigma = lehmer_decode(index, n)
    return _sigma_text(sigma), _lift(sigma.images)


def _init_worker() -> None:
    """A pool worker's setup: it leaves Ctrl-C to the parent and so prints
    nothing, and it exits as soon as its parent has gone, however that
    ended: otherwise a killed parent's workers live on, holding the
    caller's stderr. A thread watching the parent's sentinel sees that; the
    worker's own recv would not, since a forked worker holds its pipe's
    parent end, and those of the pipes made before it, so its pipe never
    closes. SIGTERM and SIGHUP keep the handlers a forked worker inherits,
    main's or an ignore: the pool stops its workers with SIGKILL, and a
    Terminated that ends a worker ends it quietly."""
    _signal.signal(_signal.SIGINT, _signal.SIG_IGN)
    from multiprocessing import parent_process
    from threading import Thread

    parent = parent_process()
    if parent:  # None where the caller is no child process
        # Nothing is written to the sentinel: a read returns b"" once the parent has gone.
        Thread(target=lambda: os.read(parent.sentinel, 1) or os._exit(1), daemon=True).start()


def _enumerate_rows(sweep, pairs) -> tuple[str, list[int], int]:
    """The CSV rows for `pairs` (formats._sweep_csv) of the sweep `sweep`,
    (seed table, n, the seed's invariants or None), their clones' 64-bit
    digests, and how many of them passed the invariance check. The sweep is
    an argument of every serial batch and of each pool worker, so sweeps
    that run at once in one process, one a thread, each keep their own seed.

    Both ranks' texts and lifts come from _rank. One _clone call makes the
    batch's clones of the seed by those lifts, unchecked, since the seed
    was checked bijective once before the sweep, and one _planes call, one
    transpose, gives the whole batch its planes. Every row's fixed-point
    counts and invariants are read off them for the whole batch at once,
    and its digest off its own table: nothing is read off the seed. A row
    passes when its invariants are the seed's.
    """
    table, n, reference = sweep
    rank = _rank if n <= _ALL_MAX_N else _rank.__wrapped__
    ranked = [(rank(k1, n), rank(k2, n)) for k1, k2 in pairs]
    clones = _clone(table, [(rows, out) for (_, rows), (_, out) in ranked])
    planes = _planes(clones, n)
    passed = ([row == reference for row in _invariants(clones, planes)] if reference
              else [False] * len(clones))
    text, digests = _sweep_csv(reference is not None,
                               zip(pairs, ranked, clones, *_fixed_counts(planes), passed))
    return text, digests, passed.count(True)


def _serve(pipe, sweep) -> None:
    """A pool worker, set up by _init_worker: the rows of each batch that
    comes down `pipe`, sent back in order, up to the end marker, an empty
    batch. It reads its next message before it sends a batch's rows."""
    _init_worker()
    batch = pipe.recv()
    while batch:
        rows, batch = _enumerate_rows(sweep, batch), pipe.recv()
        pipe.send(rows)


def _pooled_rows(workers: int, sweep, batches):
    """The rows of each of the sweep's batches in order, from `workers`
    processes of multiprocessing's default start method, each given the
    sweep once, as its argument, and a pipe of its own. Batch i goes to
    worker i mod `workers`, which holds at most two: it gets its next batch,
    or the end marker, once its rows of the one before are read, and it
    reads that message before it sends those rows. So neither end of a pipe
    can wait in a send while the other waits in one, however large a batch
    or its rows. multiprocessing is imported here: loading it at import
    would cost every CLI call about 10 ms, and only a sweep long enough to
    pool needs it.

    At the end each worker exits on its end marker. Anything that ends the
    sweep early, a Terminated, a failed write or a worker lost, SIGKILLs the
    pool's processes and joins them, and only them: a caller's other
    children, and the workers of a sweep that another thread runs, keep
    running. A worker whose pipe closes, or that exits, before its rows
    come back, killed from outside, is WorkerLost.
    """
    from multiprocessing import connection, get_context

    context, pipes, processes = get_context(), [], []

    def rows_of(worker):
        if pipes[worker] not in connection.wait([pipes[worker], processes[worker].sentinel]):
            raise EOFError  # the worker exited with nothing left in its pipe
        return pipes[worker].recv()

    try:
        for _ in range(workers):
            pipe, theirs = context.Pipe()
            process = context.Process(target=_serve, args=(theirs, sweep))
            process.start()
            theirs.close()
            pipes.append(pipe)
            processes.append(process)
        try:
            held = deque()  # the worker of each message in flight, None for an end marker
            for i, batch in enumerate(chain(batches, repeat([], workers))):
                if len(held) == 2 * workers:  # message i - 2 * workers: this worker's, a batch
                    yield rows_of(held.popleft())
                pipes[i % workers].send(batch)
                held.append(i % workers if batch else None)
            yield from (rows_of(worker) for worker in held if worker is not None)
        except (EOFError, OSError):
            raise WorkerLost("a worker process ended before its rows came back")
    except BaseException:
        for process in processes:
            process.kill()
        raise
    finally:
        for pipe, process in zip(pipes, processes):
            process.join()
            pipe.close()


def _schedule(count: int, timings, cap: int) -> tuple[int, int]:
    """The plan for the rest of a sweep of `count` rows, after the timed
    batches whose (seconds, rows) are `timings`: how many workers take the
    rows left, at most `cap`, one meaning serial, and how many rows each
    batch holds.

    The row time is the batches' least time per row. The rows left get one
    worker per POOL_START seconds of them at that time, within the cap and
    their number, and fewer than two run serially. A batch holds the rows of
    _BATCH_SECONDS at that time, at most a quarter of each worker's share
    when pooled, and one row at least. With no timed batch the row time is
    unbounded: one serial row.
    """
    least = min((seconds / rows for seconds, rows in timings), default=inf)
    left = count - sum(rows for _, rows in timings)
    workers = max(1, min(cap, left, int(left * least / POOL_START))) if least < inf else 1
    # A pooled batch holds at most a quarter of each worker's share of the rows left.
    share = left // (4 * workers) if workers > 1 else inf
    return workers, max(1, min(int(_BATCH_SECONDS / least), share))


def cmd_enumerate(args) -> int:
    # As in cmd_clone, every usage check but the --all limit comes before the seed.
    if args.all and args.rng_seed is not None:
        raise UsageError("--rng-seed needs --sample")
    if not args.all and args.sample < 0:
        raise UsageError("--sample must be >= 0")
    if args.rng_seed is not None and args.rng_seed < 0:
        raise UsageError("--rng-seed must be >= 0")
    cap = min(_thread_cap(), _cpus())
    seed = load_sbox(args.seed)
    _check_clone(seed)
    table, n = seed.table, seed.n
    fact = factorial(n)
    if args.all:
        if n > _ALL_MAX_N:
            raise UsageError(f"--all is limited to n <= {_ALL_MAX_N} (seed has n = {n}); use --sample")
        count = fact * fact
        pairs = ((k1, k2) for k1 in range(fact) for k2 in range(fact))
    else:
        import random  # here: only a sample draws, and loading it costs every CLI call

        rng = random.Random(0 if args.rng_seed is None else args.rng_seed)
        count = args.sample
        pairs = ((rng.randrange(fact), rng.randrange(fact)) for _ in range(count))

    def results():
        # The seed's invariants are taken once the output is open. The first
        # batches, of up to 1, 2, 4 and 8 rows, run here and are timed, and
        # their least time per row is the row time: the first rows build the
        # width's tables and, under --all, lift ranks that later rows find
        # cached, a forked process's first row is cold, and a batch's fixed
        # work weighs less on more rows. _schedule makes the plan; this only
        # measures.
        sweep = (table, n, _invariants([table], _planes([table], n))[0]
                 if args.check_invariance else None)
        rows_of, timings = partial(_enumerate_rows, sweep), []
        for size in (1, 2, 4, 8):
            if batch := list(islice(pairs, min(size, _schedule(count, timings, 1)[1]))):
                began, result = perf_counter(), rows_of(batch)
                timings.append((perf_counter() - began, len(batch)))
                yield result
        workers, size = _schedule(count, timings, cap)
        batches = iter(lambda: list(islice(pairs, size)), [])
        yield from (map(rows_of, batches) if workers < 2
                    else _pooled_rows(workers, sweep, batches))

    head = _sweep_csv(args.check_invariance, head=True)[0]
    # Each 64-bit digest goes in an array("Q") bucket by its top byte, 8 bytes
    # a row where a set of them all takes about 78; a bucket is made when a
    # digest first needs it, and each is counted apart at the end.
    digests, passes = defaultdict(partial(array, "Q")), 0
    # Each result is written as it comes, the header with the first, so an
    # existing --out file stays as it was until rows are ready. Anything that
    # ends the loop early closes the results, and so stops a pool at once.
    with _output(args.out) as write, closing(results()) as rows:
        for text, batch_digests, batch_passes in rows:
            write(head + text)
            head = ""
            for digest in batch_digests:
                digests[digest >> 56].append(digest)
            passes += batch_passes
        if head:  # no rows
            write(head)

    distinct = sum(len(set(bucket)) for bucket in digests.values())
    _note(_sweep_summary(count, distinct, passes if args.check_invariance else None))
    return EXIT_INVARIANCE if args.check_invariance and passes < count else EXIT_OK


def cmd_verify(args) -> int:
    seed = load_sbox(args.seed)
    clone = load_sbox(args.clone)
    if seed.n != clone.n:
        _note(_width_note(seed.n, clone.n))
        return EXIT_WIDTH
    tables = [seed.table, clone.table]
    differences = _differences(*_invariants(tables, _planes(tables, seed.n)))
    with _output(None) as write:
        write(_verify_text(("bijective",) + CRITERIA, differences))
    return EXIT_MISMATCH if differences else EXIT_OK


class Option:
    """One option of a command, as `parse_args` reads it and the help lists it.

    `kind` is int, str, a tuple of choices, or bool for a flag. An option
    not given is False if it is a flag and None otherwise. Exactly one of a
    command's `one_of` options must be given.
    """

    __slots__ = ("flags", "kind", "help", "required", "one_of")

    def __init__(self, flags, kind, help, required=False, one_of=False):
        self.flags, self.kind, self.help = flags, kind, help
        self.required, self.one_of = required, one_of

    @property
    def dest(self) -> str:
        """Its namespace attribute, as argparse names it: the long flag less "--", "-" as "_"."""
        return self.flags[-1][2:].replace("-", "_")


# Per command: its help, its positionals as (dest, help), all required, and
# its options. `sboxforge NAME` runs cmd_NAME, looked up when parsing, so a
# wrapper bound to that name is the one called.
COMMANDS = {
    "clone": ("generate a clone s-box from a seed", (("seed", "seed s-box file"),), (
        Option(("--key",), str, "hex key; permutations derived from it"),
        Option(("--sigma1",), str, "input-bit permutation, comma-separated images"),
        Option(("--sigma2",), str, "output-bit permutation, comma-separated images"),
        Option(("--remove-fixed-points",), bool, "retry until the clone has no fixed or reverse fixed points"),
        Option(("--max-attempts",), int,
               "cap on removal attempts (default min(n!, 10!); n! tries every class)"),
        Option(("-o", "--output"), str, "write the clone here instead of stdout"),
    )),
    "analyze": ("report the four algebraic criteria", (("sbox", "s-box file"),), (
        Option(("--format",), ("text", "json"), "report format (default text)"),
    )),
    "derive": ("show the permutations a key produces", (), (
        Option(("--key",), str, "hex key", required=True),
        Option(("--n",), int, "bit width", required=True),
    )),
    "enumerate": ("sweep permutation pairs, emit CSV", (("seed", "seed s-box file"),), (
        Option(("--all",), bool, f"every pair (n <= {_ALL_MAX_N} only)", one_of=True),
        Option(("--sample",), int, "number of random pairs", one_of=True),
        Option(("--rng-seed",), int, "sampling seed (default 0; needs --sample)"),
        Option(("--check-invariance",), bool, "compare every clone's report against the seed's"),
        Option(("--out",), str, "write CSV here instead of stdout"),
    )),
    "verify": ("compare two s-boxes' criteria",
               (("seed", "first s-box file"), ("clone", "second s-box file")), ()),
}

# Two readers share this table. _fast reads the plain argvs that callers
# send: a command, then its positionals in order and its options, spelled
# exactly as "--opt value" or "--opt=value", the last of a repeated one
# counting. It reads them as argparse does, without loading argparse. Every
# other argv (an abbreviation, "-oVALUE", "--", a value or positional
# starting with "-", -h, a usage error) goes to argparse itself, through
# usage.parse_fallback, which keeps argparse's rules and messages.


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
        if option is None or option.kind is bool and eq:
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
    values.update((o.dest, given.get(o, False if o.kind is bool else None)) for o in options)
    return SimpleNamespace(**values)


def parse_args(argv) -> SimpleNamespace:
    """The namespace `sboxforge argv...` runs: `func(namespace)` is its exit code.

    Raises UsageError for an argv argparse would reject, with argparse's
    message. -h/--help yields a namespace whose func prints the help.
    """
    argv = list(argv)
    if (args := _fast(argv)) is None:  # imported here: argparse and the help cost a cold call 8 ms
        from .usage import parse_fallback

        args = parse_fallback(argv)
    return args


# The failure classes that main catches, each with its exit code, the first
# class an error is an instance of deciding: NonBijectiveError, like an
# s-box file's errors, is a ValueError.
_FAILURES = ((UsageError, EXIT_USAGE), (NonBijectiveError, EXIT_NON_BIJECTIVE),
             (RemovalExhausted, EXIT_EXHAUSTED), (ValueError, EXIT_PARSE), (WorkerLost, EXIT_WORKER))


def main(argv=None) -> int:
    with _signals_end_the_command():
        try:
            args = parse_args(sys.argv[1:] if argv is None else argv)
            # argparse strips "--" from an option's strings, so "--opt=--" gives it the value [].
            for o in COMMANDS[args.command][2] if hasattr(args, "command") else ():
                if isinstance(getattr(args, o.dest), list):
                    raise UsageError(f"argument {'/'.join(o.flags)}: expected one argument")
            return args.func(args)
        except tuple(kind for kind, _ in _FAILURES) as exc:
            _note(f"error: {exc}")
            return next(code for kind, code in _FAILURES if isinstance(exc, kind))
        except Terminated as ended:  # an -o/--out file the run created is already removed
            _note("error: interrupted" if ended.code == EXIT_INTERRUPTED else "error: terminated")
            return ended.code


if __name__ == "__main__":
    sys.exit(main())
