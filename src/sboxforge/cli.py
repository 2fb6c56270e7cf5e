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
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack, contextmanager
from itertools import islice
from math import factorial
from time import perf_counter
from types import SimpleNamespace

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
        if args.rng_seed is not None:
            raise UsageError("--rng-seed needs --sample")
        if n > 5:
            raise UsageError(f"--all is limited to n <= 5 (seed has n = {n}); use --sample")
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
               "cap on removal attempts (default n!, which tries every class)"),
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
        Option(("--all",), "all", bool, "every pair (n <= 5 only)", one_of=True),
        Option(("--sample",), "sample", int, "number of random pairs", one_of=True),
        Option(("--rng-seed",), "rng_seed", int, "sampling seed (default 0; needs --sample)"),
        Option(("--check-invariance",), "check_invariance", bool,
               "compare every clone's report against the seed's"),
        Option(("--out",), "out", str, "write CSV here instead of stdout"),
    )),
    "verify": ("compare two s-boxes' criteria",
               (("seed", "first s-box file"), ("clone", "second s-box file")), ()),
}

# Parsing follows argparse's rules for this table, so every argv reads and
# fails as it did under argparse: unique prefixes of long options,
# "--opt=value" and "-oVALUE", negative numbers as values, "--" ending the
# options, the last of a repeated option winning, and argparse's messages.


class _HelpRequested(Exception):
    """-h/--help was taken; `args[0]` is the command, or None for the top level."""


def _name(option: Option) -> str:
    return "/".join(option.flags)


def _fail(option: Option, message: str) -> UsageError:
    return UsageError(f"argument {_name(option)}: {message}")


def _negative_number(arg: str) -> bool:
    """argparse's "-5" / "-.5" / "-1.5" test (a final newline allowed), read as a value."""
    whole, dot, fraction = (arg[1:-1] if arg.endswith("\n") else arg[1:]).partition(".")
    return bool(whole.isdecimal() or dot and not whole) and (not dot or fraction.isdecimal())


def _lookup(options: dict, arg: str):
    """(option or None, flag, explicit value or None) if `arg` reads as an option, else None."""
    if not arg or arg[0] != "-":
        return None
    if arg in options:
        return options[arg], arg, None
    if len(arg) == 1:
        return None
    if "=" in arg:
        flag, explicit = arg.split("=", 1)
        if flag in options:
            return options[flag], flag, explicit
    if arg[1] == "-":
        prefix, eq, explicit = arg.partition("=")
        hits = [(options[f], f, explicit if eq else None) for f in options if f.startswith(prefix)]
    else:  # -oVALUE; single-dash flags are one letter
        hits = [(options[arg[:2]], arg[:2], arg[2:])] if arg[:2] in options else []
    if len(hits) > 1:
        raise UsageError(f"ambiguous option: {arg} could match {', '.join(f for _, f, _ in hits)}")
    if hits:
        return hits[0]
    return None if _negative_number(arg) or " " in arg else (None, arg, None)


def _classify(options: dict, argv: list):
    """argparse's pattern of argv ("O" option, "A" value, "-" the first "--"), options by index."""
    pattern, found = [], {}
    for i, arg in enumerate(argv):
        if arg == "--":
            pattern.append("-" + "A" * (len(argv) - i - 1))
            break
        found[i] = _lookup(options, arg)
        pattern.append("A" if found[i] is None else "O")
    return "".join(pattern), found


def _expand(options: dict, hit, argv: list, pattern: str, i: int):
    """The (option, strings) pairs the option at argv[i] stands for, and the index after them."""
    option, flag, explicit = hit
    pairs = []
    while explicit is not None:
        if option.kind is not bool:
            return pairs + [(option, [explicit])], i + 1
        # A single-dash flag runs on into the next one: -hX reads as -h -X.
        if flag[1] == "-" or not explicit or "-" + explicit[0] not in options:
            raise _fail(option, f"ignored explicit argument {explicit!r}")
        pairs.append((option, []))
        flag = "-" + explicit[0]
        option, explicit = options[flag], explicit[1:] or None
    if option.kind is bool:
        return pairs + [(option, [])], i + 1
    if pattern[i + 1:i + 2] != "A":
        raise _fail(option, "expected one argument")
    return pairs + [(option, [argv[i + 1]])], i + 2


def _value(option: Option | None, strings: list):
    """The value argparse makes of an option's (for None, a positional's) strings."""
    if "--" in strings:
        strings.remove("--")
    if len(strings) != 1:
        return []
    text = strings[0]
    if option is not None and option.kind is int:
        try:
            return int(text)
        except ValueError:
            raise _fail(option, f"invalid int value: {text!r}") from None
    if option is not None and isinstance(option.kind, tuple) and text not in option.kind:
        choices = ", ".join(map(repr, option.kind))
        raise _fail(option, f"invalid choice: {text!r} (choose from {choices})")
    return text


def _parse_command(name: str, argv: list):
    """Namespace entries and unrecognized strings of `sboxforge NAME argv...`."""
    _, positionals, options = COMMANDS[name]
    flags = {flag: option for option in (HELP,) + options for flag in option.flags}
    pattern, found = _classify(flags, argv)
    values = {"command": name, "func": globals()[f"cmd_{name}"]}
    values.update((option.dest, False if option.kind is bool else option.default)
                  for option in options)
    waiting, extras, taken, chosen = list(positionals), [], set(), []
    i = 0
    while i < len(argv):
        if pattern[i] != "O":
            # The next positional takes one value, with the "--" next to it if there is
            # one; values left over up to the next option are unrecognized.
            j = i + (pattern[i] == "-")
            if waiting and pattern[j:j + 1] == "A":
                j += 1 + (pattern[j + 1:j + 2] == "-")
                values[waiting.pop(0)[0]] = _value(None, argv[i:j])
            else:
                j = (pattern + "O").index("O", i)
                extras += argv[i:j]
            i = j
        elif found[i][0] is None:
            extras.append(argv[i])
            i += 1
        else:
            pairs, i = _expand(flags, found[i], argv, pattern, i)
            for option, strings in pairs:
                if option is HELP:
                    raise _HelpRequested(name)
                value = _value(option, strings)
                if option.one_of:
                    clash = [other for other in chosen if other is not option]
                    if clash:
                        raise _fail(option, f"not allowed with argument {_name(clash[0])}")
                    chosen.append(option)
                taken.add(option)
                values[option.dest] = True if option.kind is bool else value

    missing = [dest for dest, _ in waiting]
    missing += [_name(option) for option in options if option.required and option not in taken]
    if missing:
        raise UsageError(f"the following arguments are required: {', '.join(missing)}")
    group = [_name(option) for option in options if option.one_of]
    if group and not chosen:
        raise UsageError(f"one of the arguments {' '.join(group)} is required")
    return values, extras


def _parse(argv: list) -> SimpleNamespace:
    top = {"-h": HELP, "--help": HELP}
    pattern, found = _classify(top, argv)
    extras, i = [], 0
    while pattern[i:i + 1] == "O":
        if found[i][0] is not None:
            _expand(top, found[i], argv, pattern, i)  # rejects -hX and --help=X
            raise _HelpRequested(None)
        extras.append(argv[i])
        i += 1
    if pattern[i:] in ("", "-"):
        raise UsageError("the following arguments are required: command")
    if argv[i] not in COMMANDS:
        choices = ", ".join(map(repr, COMMANDS))
        raise UsageError(f"argument command: invalid choice: {argv[i]!r} (choose from {choices})")
    values, more = _parse_command(argv[i], argv[i + 1:])
    if extras + more:
        raise UsageError(f"unrecognized arguments: {' '.join(extras + more)}")
    return SimpleNamespace(**values)


def _show_help(args) -> int:
    sys.stdout.write(args.help)
    return EXIT_OK


def parse_args(argv) -> SimpleNamespace:
    """The namespace `sboxforge argv...` runs: `func(namespace)` is its exit code.

    Raises UsageError for an argv argparse would reject, with argparse's
    message. -h/--help yields a namespace whose func prints the help.
    """
    try:
        return _parse(list(argv))
    except _HelpRequested as shown:
        # Imported here: compiling the help renderer would slow every cold start.
        from .usage import help_text

        return SimpleNamespace(func=_show_help, help=help_text(shown.args[0]))


def main(argv=None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
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
