"""Command-line surface: the subcommand table, flags, the entry point.

    chromadefect <subcommand> [--flag VALUE | --flag=VALUE | --switch]...

Each subcommand is one row of SUBCOMMANDS: its help text, its flags
(COMMON_FLAGS too), its allowed and default formats, the job it runs
and the function that reads its flags into the job's params, refusing
any past its engine's limits.  A unique prefix names a flag; a repeated
flag keeps its last value, but each --format adds one.  --window takes
four ints, negative ones too.  -h or --help, first or after the
subcommand, prints help made from the table by chromadefect.usage.

Every job is `<engine>.<x>_job(params, payload) -> {filename: bytes}`,
its flags reader is `<engine>.<x>_params(args) -> params`, and both
live beside their engine, each reader with the MAX_* limits it
enforces: ext, may, margolis, fgl and defect name theirs after the
engine, and ssq has ko_ss_job and ko_ss_params.  The payload is the
parsed JSON that --input names, or None for a subcommand without it.
The params and the payload are the job's config.  Artifacts are pure
functions of the config: no timestamps and no filesystem paths inside
the bytes.  Every run computes its artifacts, and one all-or-nothing
writer, _write_artifacts, files them in --out.  --no-cache is accepted
and changes nothing.

Exit codes: 0 success or help; 2 chromadefect.InputError, raised for an
argv the table refuses, a config over a limit or bad input, here or in
an engine, with `error: ...` on stderr and nothing written; 3 any other
ValueError, an engine refusing to certify its computation.

Importing this module loads the ext, fgl and defect engines, so their
compile time is paid at import and not inside a job.  The may,
margolis and ssq engines, their readers and limits with them, load
when their subcommand's flags are read, so no other job compiles them.
usage.py (the help text) loads only for -h or --help, so no job
compiles it.  Every JSON artifact is charts.json_bytes.
"""

import errno
import json
import os
import sys
from importlib import import_module
from pathlib import Path
from types import SimpleNamespace

from . import InputError, defect, ext, fgl  # noqa: F401  (the eager engines)
from .steenrod import MAX_FAMILY_HEIGHT

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_COMPUTE = 3
FORMATS = ("tsv", "json", "svg")


# ---------------------------------------------------------------------------
# the table


# One row per subcommand: help text; flags, {flag: (kind, default,
# help)}, where a kind is int, str, bool (a switch), list (four ints) or
# a tuple of choices, and ... as a default marks a required flag; the
# allowed and default formats; the job, "<engine module>.<function>";
# and the reader of its flags into params, named the same way.
SUBCOMMANDS = {
    "ext": SimpleNamespace(
        help="Ext rank chart of the trivial comodule", flags={
            "--prime": (int, 2, ""),
            "--family": (("A", "E", "P", "T"), "T", "quotient Hopf algebra family"),
            "--n": (int, 1, f"family height, at most {MAX_FAMILY_HEIGHT}"),
            "--stem-max": (int, 13, ""), "--s-max": (int, 8, "")},
        formats=FORMATS, default=("tsv", "svg"), job="ext.ext_job", params="ext.ext_params"),
    "may": SimpleNamespace(
        help="May spectral sequence E1 with its d1 arrows, and E2", flags={
            "--prime": (int, 2, ""), "--n": (int, 1, "telescope height"),
            "--stem-max": (int, 13, ""), "--s-max": (int, 8, "")},
        formats=FORMATS, default=("tsv", "svg"), job="may.may_job", params="may.may_params"),
    "margolis": SimpleNamespace(
        help="freeness verdict for a finite module", flags={
            "--input": (str, ..., "module description (JSON)"),
            "--subalgebra": (str, "A(1)", 'e.g. "A(1)" or "P(2)"')},
        formats=("tsv", "json"), default=("json",), job="margolis.margolis_job",
        params="margolis.margolis_params"),
    "fgl": SimpleNamespace(
        help="formal-group-law doubling and inversion witness", flags={
            "--n": (int, 2, "real-theory height"),
            "--cap": (int, None, "series truncation degree")},
        formats=("tsv", "json"), default=("json",), job="fgl.fgl_job", params="fgl.fgl_params"),
    "defect": SimpleNamespace(
        help="chromatic-defect verdict table", flags={
            "--cap": (int, 24, "stem cap for the ko and tmf evenness bounds")},
        formats=("tsv", "json"), default=("tsv",), job="defect.defect_job",
        params="defect.defect_params"),
    "ko-ss": SimpleNamespace(
        help="real K-theory descent chart pages", flags={
            "--variant": (("polynomial", "laurent"), "polynomial", ""),
            "--window": (list, (-4, 16, -2, 14), "stem range, then filtration range")},
        formats=FORMATS, default=("tsv", "svg"), job="ssq.ko_ss_job", params="ssq.ko_ss_params"),
}
COMMON_FLAGS = {
    "--out": (str, ".", "output directory"),
    "--no-cache": (bool, False, "no effect; every run computes its artifacts"),
    "--format": (FORMATS, None, "output format; repeatable"),
}
HELP_FLAGS = ("-h", "--help")


def _is_value(token) -> bool:
    """A token after a flag is a value unless it starts with "-", but a
    lone "-", a negative number (-5, -.5, -1.5) or a word with a space
    is a value too.  isdecimal takes every Unicode decimal digit, as
    argparse's negative-number pattern does."""
    if not token.startswith("-") or " " in token:
        return True
    whole, dot, frac = token[1:].partition(".")
    return (not whole or whole.isdecimal()) and (not dot or frac.isdecimal())


def parse_args(argv) -> SimpleNamespace:
    """The job namespace for argv, read by the grammar in the module
    docstring, or SimpleNamespace(help=text) for -h or --help."""
    rest = list(argv)
    subcommand = rest.pop(0) if rest and rest[0] in SUBCOMMANDS else None
    flags = {**SUBCOMMANDS[subcommand].flags, **COMMON_FLAGS} if subcommand else {}
    args = {flag: default for flag, (_, default, _) in flags.items()}
    while rest:
        token = rest.pop(0)
        flag, eq, value = token.partition("=")
        if flag not in flags and flag not in HELP_FLAGS:
            # a unique prefix of a flag stands for it
            hits = [f for f in (*flags, *HELP_FLAGS) if len(flag) > 2 and f.startswith(flag)]
            if len(hits) > 1:
                raise InputError(f"ambiguous flag {flag}: could be {', '.join(hits)}")
            if not hits and subcommand is None:
                break  # refused below, as a missing subcommand
            if not hits:
                raise InputError(f"unrecognized argument {token!r}")
            flag = hits[0]
        kind = flags[flag][0] if flag in flags else bool  # help is a switch too
        count = 0 if kind is bool else 4 if kind is list else 1
        values = [value] if eq else []
        while not eq and rest and len(values) < count and _is_value(rest[0]):
            values.append(rest.pop(0))
        if len(values) != count:
            raise InputError(f"{flag} takes {count or 'no'} value{'s' * (count != 1)}")
        try:
            values = [int(v) for v in values] if kind in (int, list) else values
        except ValueError:
            raise InputError(f"{flag} takes integers, got {' '.join(values)!r}") from None
        if isinstance(kind, tuple) and values[0] not in kind:
            raise InputError(f"{flag} takes one of {', '.join(kind)}, got {values[0]!r}")
        if flag in HELP_FLAGS:
            from .usage import _help

            return SimpleNamespace(help=_help(subcommand))
        if flag == "--format":
            values = (args[flag] or []) + values
        keep_list = kind is list or flag == "--format"
        args[flag] = True if kind is bool else values if keep_list else values[0]
    if subcommand is None:
        raise InputError(f"need a subcommand first: {', '.join(SUBCOMMANDS)}")
    missing = [flag for flag, value in args.items() if value is ...]
    if missing:
        raise InputError(f"{subcommand} needs {', '.join(missing)}")
    return SimpleNamespace(subcommand=subcommand, **{
        "formats" if flag == "--format" else flag[2:].replace("-", "_"): value
        for flag, value in args.items()
    })


def _engine_function(name):
    """The function "<engine module>.<function>" names; the module loads
    on its first use."""
    engine, _, function = name.partition(".")
    return getattr(import_module(f".{engine}", __package__), function)


def _config_from_args(args):
    """The job's params and payload: everything that can change its
    artifact bytes."""
    row = SUBCOMMANDS[args.subcommand]
    formats = args.formats or row.default
    for fmt in formats:
        if fmt not in row.formats:
            raise InputError(
                f"format {fmt!r} is not available for {args.subcommand} "
                f"(allowed: {', '.join(row.formats)})"
            )
    payload = None
    if "--input" in row.flags:
        try:
            payload = json.loads(Path(args.input).read_text(encoding="utf-8"))
        except (OSError, ValueError, RecursionError) as exc:
            raise InputError(f"unreadable input {args.input}: {exc}") from None
    params = {"formats": sorted(set(formats)), **_engine_function(row.params)(args)}
    return params, payload


# ---------------------------------------------------------------------------
# artifacts


def _write_artifacts(out_dir, artifacts):
    """Write every artifact into the --out directory out_dir, or none of
    them, and return the paths written, out_dir joined with each name.  A
    name taken by a directory stops the write before any file is made; each
    file goes to a temporary `.<name>.<pid>.tmp`, renamed into place once
    every write has succeeded, and a failure's temporaries are removed.
    Plain os calls: pathlib objects took a third of a small job's write."""
    prefix = "" if out_dir == "." else out_dir if out_dir.endswith("/") else out_dir + "/"
    names = sorted(artifacts)
    os.makedirs(out_dir, exist_ok=True)
    for name in names:
        if os.path.isdir(prefix + name):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), prefix + name)
    temps = {}
    try:
        for name in names:
            temps[name] = f"{prefix}.{name}.{os.getpid()}.tmp"
            with open(temps[name], "wb") as file:
                file.write(artifacts[name])
        for name in names:
            os.replace(temps[name], prefix + name)
            del temps[name]
    finally:
        for tmp in temps.values():
            if os.path.lexists(tmp):
                os.remove(tmp)
    return [prefix + name for name in names]


def _print(text) -> int:
    """Write text to stdout; a reader that closed it is no error."""
    try:
        print(text, end="", flush=True)
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit: aim it at devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


def main(argv=None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        if "help" in vars(args):
            return _print(args.help)
        params, payload = _config_from_args(args)
        artifacts = _engine_function(SUBCOMMANDS[args.subcommand].job)(params, payload)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"compute error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE

    try:
        paths = _write_artifacts(str(Path(args.out)), artifacts)  # as `wrote` spells it
    except OSError as exc:
        print(f"error: cannot write to --out {args.out}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return _print("".join(f"wrote {path}\n" for path in paths))


if __name__ == "__main__":
    # `python -m chromadefect.cli` runs this file as __main__: file it
    # as chromadefect.cli too, so that usage, which imports that name,
    # does not compile and run a second copy of it
    sys.modules.setdefault(f"{__package__}.cli", sys.modules[__name__])
    sys.exit(main())
