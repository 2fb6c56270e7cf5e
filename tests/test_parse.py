"""The command line against the argparse parser it was first written as.

`oracles.argparse_parser()` is that parser. Every argv must parse to the
same values under both, or be rejected by both with the same message,
whether the CLI reads it directly or hands it to argparse.
"""

import argparse
import contextlib
import io
import sys

import pytest
from hypothesis import find, given, settings
from hypothesis import strategies as st

from sboxforge import cli, usage
from sboxforge.cli import main

from oracles import ArgparseRejected, argparse_parser

# cli._fast reads argvs by the rules of argparse as Python 3.11 ships it,
# so that version is the reference.
reference_version = pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                                       reason="the reference is Python 3.11's argparse")


def by_argparse(argv):
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            args = argparse_parser().parse_args(argv)
    except ArgparseRejected as exc:
        return "rejected", str(exc)
    except SystemExit as exc:
        return "help", exc.code
    return "accepted", vars(args)


def by_table(argv):
    try:
        args = cli.parse_args(argv)
    except cli.UsageError as exc:
        return "rejected", str(exc)
    if args.func is usage._show_help:
        return "help", 0
    return "accepted", vars(args)


# -h/--help as an option: the one a command without options of its own is drawn.
HELP_OPTION = cli.Option(("-h", "--help"), bool, "show this help message and exit")
GOOD = {int: ["0", "3", "16", "-1"], str: ["8f31", "f.txt", "1,0,2"]}
BAD = ["-1.5", "-.5", "1.5", "x", "", "xml", "--", "-", "-x", "a b", " 5", "1_0", "٣", "-٣"]
UNKNOWN = ["-x", "--bogus", "--bogus=1", "---", "--=1", "-=", "-x=y", "-1x",
           "-h", "--help", "--he", "-hx", "-hh", "-ho", "-hof"]


@st.composite
def option_tokens(draw, option):
    """One option as `--opt value`, `--opt=value` or `-oVALUE`, its flag maybe cut to a prefix."""
    long = [flag[:k] for flag in option.flags if flag.startswith("--") for k in range(3, len(flag))]
    flags = st.sampled_from(option.flags)
    flag = draw(flags | st.sampled_from(long) if long else flags)
    if option.kind is bool:
        return [flag]
    good = option.kind if isinstance(option.kind, tuple) else GOOD[option.kind]
    good = st.sampled_from(good)
    value = draw(good | good | st.sampled_from(BAD + list(cli.COMMANDS)))
    form = draw(st.sampled_from(["apart", "equals", "attached"]))
    if form == "equals":
        return [f"{flag}={value}"]
    if form == "attached" and not flag.startswith("--"):
        return [flag + value]
    return [flag, value]


@st.composite
def argvs(draw):
    """An argv for one command: its positionals and required options, each maybe left out, in any
    order among other options, bad values, unknown options, extra positionals and "--"."""
    name = draw(st.sampled_from(list(cli.COMMANDS)))
    _, positionals, options = cli.COMMANDS[name]
    parts = [[draw(st.sampled_from(["s.txt", name]))] for _ in positionals]
    parts += [draw(option_tokens(option)) for option in options if option.required or option.one_of]
    parts = [part for part in parts if draw(st.integers(0, 9))]
    parts += draw(st.lists(st.one_of(
        st.sampled_from(options or (HELP_OPTION,)).flatmap(option_tokens),
        st.sampled_from(BAD + UNKNOWN + list(cli.COMMANDS)).map(lambda token: [token]),
        st.just(["--", "-s.txt"]),
    ), max_size=4))
    body = [token for part in draw(st.permutations(parts)) for token in part]
    odd_heads = [[], ["--"], ["--", name], ["-x", name], ["bogus"], ["-h"]]
    head = draw(st.sampled_from([[name]] * 12 + odd_heads))
    return head + body


@reference_version
@settings(max_examples=600, deadline=None)
@given(argvs())
def test_table_parses_as_argparse_did(argv):
    assert by_table(argv) == by_argparse(argv)


@pytest.mark.parametrize("outcome", ["accepted", "rejected", "help"])
def test_grammar_reaches_every_outcome(outcome):
    """The grammar above yields argvs of each outcome, not only errors."""
    find(argvs(), lambda argv: by_argparse(argv)[0] == outcome,
         settings=settings(max_examples=500, deadline=None))


@reference_version
@pytest.mark.parametrize("argv", [
    ["clone", "s", "--key", "8f31", "-o", "f"],
    ["clone", "s", "--key=8f31", "-of"],
    ["clone", "--key", "8f31", "s", "-o=f"],
    ["clone", "--remove", "--max", "5", "--key", "1", "s"],
    ["clone", "s", "--max-attempts=-3", "--max-attempts", "4", "--rem"],
    ["clone", "--key", "1", "--", "-s"],
    ["clone", "s", "--sigma1", "1,0", "--sigma2=0,1", "--output", "f"],
    ["analyze", "--format=json", "s"],
    ["analyze", "s", "--f", "text", "--format", "json"],
    ["derive", "--n", "4", "--key", "00"],
    ["derive", "--k=00", "--n=-4"],
    ["enumerate", "s", "--sample", "-1"],
    ["enumerate", "--sa=3", "s", "--rng=5", "--check"],
    ["enumerate", "s", "--all", "--all", "--out", "o.csv"],
    ["enumerate", "--all", "--", "-s"],
    ["verify", "a", "b"],
    ["verify", "a", "--", "-b"],
    ["verify", "--", "-a", "-b"],
    ["derive", "--key=--", "--n", "4"],
    ["clone", "s", "--key=-x"],
    ["clone", "s", "--output="],
    ["clone", "s", "--key", "1", "--key", "2"],
])
def test_accepted_forms_match_argparse(argv):
    outcome, values = by_table(argv)
    assert outcome == "accepted"
    assert (outcome, values) == by_argparse(argv)


CHOICES = "'clone', 'analyze', 'derive', 'enumerate', 'verify'"


@reference_version
@pytest.mark.parametrize("argv, message", [
    ([], "the following arguments are required: command"),
    (["-x", "--"], "the following arguments are required: command"),
    (["clone"], "the following arguments are required: seed"),
    (["derive"], "the following arguments are required: --key, --n"),
    (["verify", "a"], "the following arguments are required: clone"),
    (["verify", "a", "b", "c", "--x"], "unrecognized arguments: c --x"),
    (["--x", "derive", "--key", "0", "--n", "4", "y"], "unrecognized arguments: --x y"),
    (["clone", "s", "--key"], "argument --key: expected one argument"),
    (["clone", "s", "-o", "--key", "1"], "argument -o/--output: expected one argument"),
    (["derive", "--key", "0", "--n", "four"], "argument --n: invalid int value: 'four'"),
    (["enumerate", "s", "--sample", "-1.5"], "argument --sample: invalid int value: '-1.5'"),
    (["analyze", "s", "--format", "xml"],
     "argument --format: invalid choice: 'xml' (choose from 'text', 'json')"),
    (["cloned", "s"], f"argument command: invalid choice: 'cloned' (choose from {CHOICES})"),
    (["--", "clone", "s"], f"argument command: invalid choice: '--' (choose from {CHOICES})"),
    (["enumerate", "s", "--all", "--sample", "3"],
     "argument --sample: not allowed with argument --all"),
    (["enumerate", "s", "--sample", "3", "--all"],
     "argument --all: not allowed with argument --sample"),
    (["enumerate", "s"], "one of the arguments --all --sample is required"),
    (["clone", "s", "--s", "1"], "ambiguous option: --s could match --sigma1, --sigma2"),
    (["clone", "s", "--sigma=1"], "ambiguous option: --sigma=1 could match --sigma1, --sigma2"),
    (["clone", "s", "--remove-fixed-points=yes"],
     "argument --remove-fixed-points: ignored explicit argument 'yes'"),
    (["clone", "s", "-hx"], "argument -h/--help: ignored explicit argument 'x'"),
    (["analyze", "s", "--format="],
     "argument --format: invalid choice: '' (choose from 'text', 'json')"),
])
def test_rejections_exit_64_with_argparse_wording(argv, message, capsys):
    assert by_argparse(argv) == ("rejected", message)
    assert main(argv) == 64
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


@pytest.mark.parametrize("option", [o for _, _, options in cli.COMMANDS.values() for o in options],
                         ids=lambda o: o.flags[-1])
def test_option_names_are_argparses(option):
    # Both readers set an option's value as the attribute argparse derives
    # from its flags, and Option.dest reads it off the last flag: a
    # short-only flag, or a long flag listed before a short one, fails here.
    assert option.dest == argparse.ArgumentParser().add_argument(*option.flags).dest


def test_help_runs_before_later_errors():
    assert by_table(["clone", "-h", "--max-attempts", "x"]) == ("help", 0)
    assert by_table(["clone", "--max-attempts", "x", "-h"])[0] == "rejected"


@reference_version
@pytest.mark.parametrize("argv", [["-hh"], ["clone", "-hofile"], ["clone", "-ho", "file"]])
def test_single_dash_flags_run_together(argv):
    # -hX reads as -h -X when -X is a flag: these are help, not errors.
    assert by_table(argv) == by_argparse(argv) == ("help", 0)
