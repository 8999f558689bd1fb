"""Help text for the CLI, made from its subcommand table.

chromadefect.cli imports this module only when argv asks for -h or
--help, so no job compiles the help text.
"""

from .cli import COMMON_FLAGS, SUBCOMMANDS

CONTRACT = """\
Exit codes: 0 done (or help), 2 bad input (`error: ...` on stderr,
nothing written), 3 an engine refused to certify its result.
"""


def _help(subcommand=None) -> str:
    """Help text: the subcommands and the exit codes, or one
    subcommand's flags."""
    if subcommand is None:
        about = "Exact-arithmetic charts and defect tables for the bundled engines."
        rows = [(name, row.help) for name, row in SUBCOMMANDS.items()]
        tail = "\n" + CONTRACT
    else:
        row = SUBCOMMANDS[subcommand]
        about, tail = row.help, ""
        # the row narrows --format to its own formats and default
        formats = {"--format": (row.formats, " ".join(row.default), COMMON_FLAGS["--format"][2])}
        rows = []
        for flag, (kind, default, text) in {**row.flags, **COMMON_FLAGS, **formats}.items():
            flag += ("" if kind is bool else " {%s}" % ",".join(kind) if isinstance(kind, tuple)
                     else " TEXT" if kind is str else " N" * (4 if kind is list else 1))
            if default not in (None, False):
                text += " (required)" if default is ... else f" (default: {default})"
            rows.append((flag, text.strip()))
    width = max(len(left) for left, _ in rows)
    usage = f"usage: chromadefect {subcommand or '<subcommand>'} [flags]"
    lines = [usage, "", about, ""] + [f"  {a:<{width}}  {b}" for a, b in rows]
    return "\n".join(lines) + "\n" + tail
