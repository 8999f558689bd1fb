"""Command-line surface: the subcommand table, flags, limits, the cache.

    chromadefect <subcommand> [--flag VALUE | --flag=VALUE | --switch]...

Each subcommand is one row of SUBCOMMANDS: its help text, its flags
(COMMON_FLAGS too), its allowed and default formats, the job it runs
and the function that reads its flags into the job's params, refusing
any past the limits below.  A unique prefix names a flag; a repeated
flag keeps its last value, but each --format adds one.  --window takes
four ints, negative ones too.  -h or --help, first or after the
subcommand, prints help made from the table.

Every job is `<engine>.<x>_job(params, payload) -> {filename: bytes}`
and lives beside its engine: ext.ext_job, may.may_job,
margolis.margolis_job, fgl.fgl_job, defect.defect_job and
ssq.ko_ss_job.  The payload is the parsed JSON that --input names, or
None for a subcommand without it.  The params and the payload are the
job's config; its canonical JSON and the sha256 of the package's own
sources make the cache key, so a changed engine never reads an older
engine's bytes.  Artifacts are pure functions of the config: no
timestamps and no filesystem paths inside the bytes.  One all-or-nothing
writer, _write_artifacts, files the artifacts and each cache entry.

Exit codes: 0 success or help; 2 chromadefect.InputError, raised for an
argv the table refuses, a config over a limit or bad input, here or in
an engine, with `error: ...` on stderr and nothing written; 3 any other
ValueError, an engine refusing to certify its computation.

Importing this module loads the ext, fgl and defect engines, so their
compile time is paid at import and not inside a job.  The may,
margolis and ssq engines load when their job runs, and the hashing and
base64 coding the cache uses load inside the functions that need them,
so no other job compiles them.  Every JSON artifact is charts.json_bytes.
"""

import errno
import json
import os
import sys
from importlib import import_module
from pathlib import Path
from types import SimpleNamespace

from . import InputError, defect, ext, fgl  # noqa: F401  (the eager engines)
from .gradedlin import check_prime
from .steenrod import MAX_FAMILY_HEIGHT, Profile

__all__ = ["JobConfig", "main"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_COMPUTE = 3
CACHE_ENV = "CHROMADEFECT_CACHE"
# largest fgl series cap: admits ER(14) at its default cap 2^14 + 8.
# The witness solves height h only through degree 2^h + 1, so a job
# costs the same at any cap its height accepts.  Whole jobs on a 2 vCPU
# host, peak RSS read by a small launcher: fgl --n 10 took 0.07-0.11 s,
# --n 12 0.10-0.16 s, --n 13 0.18-0.34 s and --n 14 0.66-1.25 s, each at
# 15-16 MB peak.  --n 15 took 4.1 s (17 MB), 4-6x --n 14, so a height
# past 14 is refused before it computes
MAX_FGL_CAP = 16392
# operator pairs (a, b) with deg a + deg b <= min(stem_max + 2, t_max),
# the most products an ext job's resolution can form (ext.operator_pairs
# and the bound in the ext module docstring).  Products take most of a
# large job's time at small s, elimination at large s; memory stays
# small.  Whole jobs on a 2 vCPU host, two runs each, peak RSS read by a
# small launcher: A(1) at p = 2 through stem 40, s 20 (64 pairs) took
# 0.09 s and 15 MB peak, A(2) through stem 40, s 10 (4,096) 0.12-0.15 s
# and 15 MB, and T(0) through stem 40, s 10 (90,339) 1.3 s and 22 MB.
# At the largest stem each family admits, with s as large as
# MAX_EXT_CELLS allows: T(0) at p = 2 through stem 46, s 44 (187,288)
# took 3.6-4.0 s and 35 MB; T(1) through stem 91, s 32 (188,651)
# 9.5-11 s and 45 MB; A(3) through stem 52, s 42 (196,059) 4.1-4.5 s and
# 27 MB; T(0) at p = 3 through stem 120, s 26 (199,991) 3.2-3.8 s and
# 23 MB; T(1) at p = 3 through stem 318, s 11 (199,556) 5.9-6.4 s and 23 MB.
# T(0) at p = 2 through stem 87, s 1 (7.7 million) is refused; its
# resolution alone took 5.2 s and 32 MB in process
MAX_EXT_OPERATOR_PAIRS = 200_000
# largest ext window, in cells (s_max + 1) * (t_max + 1), checked before
# the operator pairs are counted; the job visits every cell
MAX_EXT_CELLS = 4096
# largest may E1 page, in window cells plus monomials; each cell and
# each monomial is an object the pages keep.  The whole job, E1 and E2
# in every format, on a 2 vCPU host: p = 2, n = 1, stem 60, s 16 (1,037
# cells, 46,418 monomials) took 1.3-2.0 s and 42 MB peak; p = 3, n = 0,
# stem 185, s 10 (2,046 cells, 57,858 monomials), 2.2-3.0 s and 50 MB,
# E2 0.3-0.4 s of it; p = 5, n = 1, stem 9999, s 4 (50,000 cells, 2,999
# monomials), 0.4-0.5 s and 33 MB
MAX_MAY_E1_SIZE = 60_000
# largest ko-ss window, in cells.  Whole jobs on a 2 vCPU host, every
# format, peak RSS read by a small launcher: the laurent chart over
# -150..150 x -300..300 (180,901 cells) took 1.2-1.4 s and 75 MB in ten
# runs, the polynomial one 0.7-0.9 s and 45 MB in six.  Over 501,501
# cells the laurent job alone took 3.8-4.2 s and 171 MB in process
MAX_KO_SS_CELLS = 250_000
# largest defect stem cap: the ko and tmf bounds read the Koszul closed
# form through the cap, which costs a Poincare series of cap + 2 terms
# per family, and the cap names the window each bound certifies.  On a
# 2 vCPU host `python -m chromadefect.cli defect` took 0.07-0.11 s at
# caps 1, 24 and 1000 without bytecode, 15 MB peak: about 0.07 s of it
# interpreter start, importing chromadefect.cli 24-42 ms, and `main`
# 0.8-1.9 ms at caps 1 and 24 and 1.9-3.0 ms at 1000.  The limit is
# kept as one of the CLI's documented refusals
MAX_DEFECT_CAP = 1000
FORMATS = ("tsv", "json", "svg")


class JobConfig:
    """One validated CLI job.

    `params` and `payload` (the JSON --input names) hold everything that
    can change the artifact bytes; everything that cannot (output
    directory, cache toggle) stays out, so the cache key never splits
    on plumbing.
    """

    __slots__ = ("subcommand", "params", "out_dir", "use_cache", "payload")

    def __init__(self, subcommand, params, out_dir=".", use_cache=True, payload=None):
        self.subcommand = subcommand
        self.params = dict(params)
        self.out_dir = out_dir
        self.use_cache = use_cache
        self.payload = payload

    def key(self) -> str:
        """Cache key: the canonical config (sorted keys), the payload as
        compact JSON (in its own key order, which can order a module's
        operators) and the engine fingerprint."""
        import hashlib

        config = {"subcommand": self.subcommand, "params": self.params}
        blob = "\n".join([json.dumps(config, sort_keys=True, separators=(",", ":")),
                          json.dumps(self.payload, separators=(",", ":")),
                          _engine_fingerprint()])
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _engine_fingerprint() -> str:
    """sha256 over the package's .py sources, by relative path."""
    import hashlib

    root = Path(__file__).resolve().parent
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode("utf-8") + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# flags -> params, one reader per subcommand


def _check_positive(name, value) -> int:
    if value < 1:
        raise InputError(f"{name} must be positive, got {value}")
    return value


def _window_params(args):
    """The prime, height and window every ext and may job reads."""
    prime = check_prime(args.prime)
    if args.n < 0:
        raise InputError(f"height must be nonnegative, got {args.n}")
    return {
        "prime": prime,
        "n": args.n,
        "stem_max": _check_positive("stem cap", args.stem_max),
        "s_max": _check_positive("s cap", args.s_max),
    }


def _ext_params(args):
    """Refuse a height over MAX_FAMILY_HEIGHT, a window over
    MAX_EXT_CELLS cells, then a job whose operator pairs pass
    MAX_EXT_OPERATOR_PAIRS; bounding the window first keeps the
    Poincare series short."""
    params = _window_params(args)
    if args.n > MAX_FAMILY_HEIGHT:
        raise InputError(f"height {args.n} is over the limit {MAX_FAMILY_HEIGHT}")
    params["family"] = args.family
    t_max = args.stem_max + args.s_max
    cells = (args.s_max + 1) * (t_max + 1)
    if cells > MAX_EXT_CELLS:
        raise InputError(f"the Ext window has {cells} cells, over the limit {MAX_EXT_CELLS}")
    profile = getattr(Profile, args.family)(args.prime, args.n)
    need = ext.operator_pairs(profile, min(args.stem_max + 2, t_max))
    if need > MAX_EXT_OPERATOR_PAIRS:
        raise InputError(
            f"the resolution may multiply {need} operator pairs, "
            f"over the limit {MAX_EXT_OPERATOR_PAIRS}"
        )
    return params


def _may_params(args):
    """Refuse a may page over MAX_MAY_E1_SIZE window cells plus E1
    monomials, bounding the window before counting monomials in it."""
    params = _window_params(args)
    from .may import e1_monomial_count

    cells = (args.stem_max + 1) * (args.s_max + 1)
    if cells > MAX_MAY_E1_SIZE:
        raise InputError(f"the E1 window has {cells} cells, over the limit {MAX_MAY_E1_SIZE}")
    size = cells + e1_monomial_count(args.n, params["prime"], args.stem_max, args.s_max)
    if size > MAX_MAY_E1_SIZE:
        raise InputError(
            f"the E1 page has {size} cells and monomials, over the limit {MAX_MAY_E1_SIZE}"
        )
    return params


def _margolis_params(args):
    """The subalgebra name; margolis_job checks it with the module."""
    return {"subalgebra": args.subalgebra}


def _fgl_params(args):
    """Refuse a cap over MAX_FGL_CAP; fgl_job refuses one too small.
    The default cap is resolved here, so spelling it out keys the same
    cache entry."""
    n = _check_positive("height", args.n)
    # compare exponents first, so a huge height never builds 2^n
    if n >= MAX_FGL_CAP.bit_length():
        raise InputError(f"height {n} needs a cap above 2^{n}, over the limit {MAX_FGL_CAP}")
    cap = 2**n + 8 if args.cap is None else args.cap
    if cap > MAX_FGL_CAP:
        raise InputError(f"cap {cap} is over the limit {MAX_FGL_CAP}")
    return {"n": n, "cap": cap}


def _defect_params(args):
    stem_cap = _check_positive("stem cap", args.cap)
    if stem_cap > MAX_DEFECT_CAP:
        raise InputError(f"stem cap {stem_cap} is over the limit {MAX_DEFECT_CAP}")
    return {"stem_cap": stem_cap}


def _ko_ss_params(args):
    lo, hi, flo, fhi = args.window
    if lo > hi or flo > fhi:
        raise InputError(f"empty window {tuple(args.window)}")
    cells = (hi - lo + 1) * (fhi - flo + 1)
    if cells > MAX_KO_SS_CELLS:
        raise InputError(f"the window has {cells} cells, over the limit {MAX_KO_SS_CELLS}")
    return {"variant": args.variant, "window": [lo, hi, flo, fhi]}


# ---------------------------------------------------------------------------
# the table


# One row per subcommand: help text; flags, {flag: (kind, default,
# help)}, where a kind is int, str, bool (a switch), list (four ints) or
# a tuple of choices, and ... as a default marks a required flag; the
# allowed and default formats; the job, "<engine module>.<function>";
# and the reader of its flags into params.
SUBCOMMANDS = {
    "ext": SimpleNamespace(
        help="Ext rank chart of the trivial comodule", flags={
            "--prime": (int, 2, ""),
            "--family": (("A", "E", "P", "T"), "T", "quotient Hopf algebra family"),
            "--n": (int, 1, f"family height, at most {MAX_FAMILY_HEIGHT}"),
            "--stem-max": (int, 13, ""), "--s-max": (int, 8, "")},
        formats=FORMATS, default=("tsv", "svg"), job="ext.ext_job", params=_ext_params),
    "may": SimpleNamespace(
        help="May spectral sequence E1 with its d1 arrows, and E2", flags={
            "--prime": (int, 2, ""), "--n": (int, 1, "telescope height"),
            "--stem-max": (int, 13, ""), "--s-max": (int, 8, "")},
        formats=FORMATS, default=("tsv", "svg"), job="may.may_job", params=_may_params),
    "margolis": SimpleNamespace(
        help="freeness verdict for a finite module", flags={
            "--input": (str, ..., "module description (JSON)"),
            "--subalgebra": (str, "A(1)", 'e.g. "A(1)" or "P(2)"')},
        formats=("tsv", "json"), default=("json",), job="margolis.margolis_job",
        params=_margolis_params),
    "fgl": SimpleNamespace(
        help="formal-group-law doubling and inversion witness", flags={
            "--n": (int, 2, "real-theory height"),
            "--cap": (int, None, "series truncation degree")},
        formats=("tsv", "json"), default=("json",), job="fgl.fgl_job", params=_fgl_params),
    "defect": SimpleNamespace(
        help="chromatic-defect verdict table", flags={
            "--cap": (int, 24, "stem cap for the ko and tmf evenness bounds")},
        formats=("tsv", "json"), default=("tsv",), job="defect.defect_job",
        params=_defect_params),
    "ko-ss": SimpleNamespace(
        help="real K-theory descent chart pages", flags={
            "--variant": (("polynomial", "laurent"), "polynomial", ""),
            "--window": (list, (-4, 16, -2, 14), "stem range, then filtration range")},
        formats=FORMATS, default=("tsv", "svg"), job="ssq.ko_ss_job", params=_ko_ss_params),
}
COMMON_FLAGS = {
    "--out": (str, ".", "output directory"),
    "--no-cache": (bool, False, "recompute even on a cache hit"),
    "--format": (FORMATS, None, "output format; repeatable"),
}
HELP_FLAGS = ("-h", "--help")
CONTRACT = f"""\
Exit codes: 0 done (or help), 2 bad input (`error: ...` on stderr,
nothing written), 3 an engine refused to certify its result.
Artifacts are cached in ${CACHE_ENV} (default ~/.cache/chromadefect),
keyed by the job and the package's sources; --no-cache neither reads
nor writes the cache.
"""


def _is_value(token) -> bool:
    """A token after a flag is a value unless it starts with "-", but a
    lone "-", a negative number (-5, -.5, -1.5) or a word with a space
    is a value too.  isdecimal takes every Unicode decimal digit, as
    argparse's negative-number pattern does."""
    if not token.startswith("-") or " " in token:
        return True
    whole, dot, frac = token[1:].partition(".")
    return (not whole or whole.isdecimal()) and (not dot or frac.isdecimal())


def _help(subcommand=None) -> str:
    """Help text: the subcommands and the exit codes and cache, or one
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


def _config_from_args(args) -> JobConfig:
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
    params = {"formats": sorted(set(formats)), **row.params(args)}
    return JobConfig(
        args.subcommand,
        params,
        out_dir=args.out,
        use_cache=not args.no_cache,
        payload=payload,
    )


# ---------------------------------------------------------------------------
# cache and artifacts


def _cache_dir() -> str:
    root = os.environ.get(CACHE_ENV)
    if root:
        return root
    home = os.path.expanduser("~")
    if home == "~":  # no home directory: no cache, rather than one in ./~
        raise FileNotFoundError(errno.ENOENT, f"no home directory; set {CACHE_ENV}")
    return os.path.join(home, ".cache", "chromadefect")


def cache_load(key):
    import base64

    try:  # a missing entry raises FileNotFoundError, an OSError
        blob = json.loads(Path(_cache_dir(), f"{key}.json").read_text(encoding="utf-8"))
        if blob["key"] != key:
            return None  # entry filed under the wrong name
        names = blob["artifacts"]
        if any(Path(n).name != n or n in ("", "..") or "\0" in n for n in names):
            return None  # a write to such a name could leave --out
        return {n: base64.b64decode(data) for n, data in names.items()}
    except (ValueError, KeyError, TypeError, AttributeError, OSError, RecursionError):
        return None  # corrupt entry: fall through to recompute


def cache_store(key, artifacts):
    """File the artifacts under key: one JSON entry, written by _write_artifacts."""
    import base64

    coded = {name: base64.b64encode(data).decode("ascii") for name, data in artifacts.items()}
    blob = json.dumps({"key": key, "artifacts": coded}, sort_keys=True).encode("ascii")
    _write_artifacts(_cache_dir(), {f"{key}.json": blob})


def _write_artifacts(out_dir, artifacts):
    """Write every artifact into the directory out_dir, or none of them,
    and return the paths written, out_dir joined with each name.  A name
    taken by a directory stops the write before any file is made; each
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
        cfg = _config_from_args(args)
        key = cfg.key() if cfg.use_cache else None
        artifacts = cache_load(key) if key else None
        if artifacts is None:
            engine, _, job = SUBCOMMANDS[cfg.subcommand].job.partition(".")
            artifacts = getattr(import_module(f".{engine}", __package__), job)(
                cfg.params, cfg.payload
            )
            if cfg.use_cache:
                try:
                    cache_store(key, artifacts)
                except OSError as exc:
                    # the artifacts stand; an unusable cache costs a later hit
                    print(f"warning: cache not written: {exc}", file=sys.stderr)
        else:
            print(f"cache hit {key[:12]}", file=sys.stderr)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"compute error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE

    try:
        paths = _write_artifacts(str(Path(cfg.out_dir)), artifacts)  # as `wrote` spells it
    except OSError as exc:
        print(f"error: cannot write to --out {cfg.out_dir}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return _print("".join(f"wrote {path}\n" for path in paths))


if __name__ == "__main__":
    sys.exit(main())
