"""The CLI's slow path, built from cli.COMMANDS: argparse's reading of each
argv that cli._fast declines, and the help of `sboxforge [COMMAND] -h`,
rendered and printed here alone. Only such a call compiles it and loads
argparse, about 8 ms of a cold call.
"""

from __future__ import annotations

import argparse
from types import SimpleNamespace

from . import cli


class _HelpRequested(Exception):
    """-h/--help was taken; `args[0]` is the command, or None for the top level."""


class Parser(argparse.ArgumentParser):
    """argparse, its errors raised as cli.UsageError and its help left to help_text."""

    def error(self, message):
        raise cli.UsageError(message)

    def print_help(self, file=None):
        # A command's parser has prog "sboxforge NAME"; the top one, "sboxforge".
        raise _HelpRequested(self.prog.partition(" ")[2] or None)


def parse_fallback(argv: list) -> SimpleNamespace:
    """cli.parse_args of an argv that cli._fast declined: the namespace
    argparse makes of it, or for -h/--help one whose func prints the help."""
    top = Parser(prog="sboxforge")
    commands = top.add_subparsers(dest="command", required=True)
    for name, (_, positionals, options) in cli.COMMANDS.items():
        parser = commands.add_parser(name)
        for dest, _ in positionals:
            parser.add_argument(dest)
        if any(o.one_of for o in options):
            group = parser.add_mutually_exclusive_group(required=True)
        for o in options:
            into = group if o.one_of else parser
            if o.kind is bool:
                into.add_argument(*o.flags, action="store_true")
            else:
                into.add_argument(*o.flags, required=o.required, type=int if o.kind is int else None,
                                  choices=o.kind if isinstance(o.kind, tuple) else None)
        # Looked up on cli now, so that a wrapper bound to cli.cmd_NAME is the one called.
        parser.set_defaults(func=getattr(cli, f"cmd_{name}"))
    try:
        return SimpleNamespace(**vars(top.parse_args(argv)))
    except _HelpRequested as shown:
        return SimpleNamespace(func=_show_help, help=help_text(shown.args[0]))


def _show_help(args) -> int:
    with cli._output(None) as write:
        write(args.help)
    return cli.EXIT_OK


def _metavar(option: cli.Option) -> str:
    if option.kind is bool:
        return ""
    if isinstance(option.kind, tuple):
        return " {" + ",".join(option.kind) + "}"
    return " " + option.dest.upper()


def help_text(name: str | None) -> str:
    """Help for `sboxforge -h`, or for `sboxforge NAME -h`, rendered from COMMANDS."""
    commands, options = cli.COMMANDS, [("-h, --help", "show this help message and exit")]
    if name is None:
        usage = "sboxforge [-h] {" + ",".join(commands) + "} ..."
        about = "Clone s-box generation and analysis"
        sections = [("commands", [(cmd, spec[0]) for cmd, spec in commands.items()]),
                    ("options", options)]
        end = ["", "Run 'sboxforge COMMAND -h' for the options of one command."]
    else:
        about, positionals, table = commands[name]
        options += [(", ".join(flag + _metavar(o) for flag in o.flags), o.help) for o in table]
        words = [f"sboxforge {name} [-h]"] + [o.flags[0] + _metavar(o) for o in table if o.required]
        group = [o.flags[0] + _metavar(o) for o in table if o.one_of]
        words += [f"({' | '.join(group)})"] if group else []
        words += ["[options]"] if any(not (o.required or o.one_of) for o in table) else []
        usage = " ".join(words + [dest for dest, _ in positionals])
        sections = [("positional arguments", positionals), ("options", options)]
        end = []
    lines = [f"usage: {usage}", "", about]
    for title, rows in sections:
        if rows:
            lines += ["", f"{title}:"]
            lines += [f"  {left:<20}  {text}" if len(left) <= 20 else f"  {left}\n{'':24}{text}"
                      for left, text in rows]
    return "\n".join(lines + end) + "\n"
