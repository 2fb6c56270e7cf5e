"""Help text for `sboxforge -h` and `sboxforge COMMAND -h`, rendered from cli.COMMANDS.

Kept apart from cli so that only a call that asks for help compiles it.
"""

from __future__ import annotations

from .cli import COMMANDS, HELP, Option


def _metavar(option: Option) -> str:
    if option.kind is bool:
        return ""
    if isinstance(option.kind, tuple):
        return " {" + ",".join(option.kind) + "}"
    return " " + option.dest.upper()


def help_text(name: str | None) -> str:
    """Help for `sboxforge -h`, or for `sboxforge NAME -h`, rendered from COMMANDS."""
    options = [("-h, --help", HELP.help)]
    if name is None:
        usage = "sboxforge [-h] {" + ",".join(COMMANDS) + "} ..."
        about = "Clone s-box generation and analysis"
        sections = [("commands", [(cmd, spec[0]) for cmd, spec in COMMANDS.items()]),
                    ("options", options)]
        end = ["", "Run 'sboxforge COMMAND -h' for the options of one command."]
    else:
        about, positionals, table = COMMANDS[name]
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
