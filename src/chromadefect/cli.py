"""Command-line surface: flags, job configs, artifact caching, engine dispatch.

    chromadefect <subcommand> [--flag VALUE | --flag=VALUE | --switch]...

The flags are the table SUBCOMMANDS plus COMMON_FLAGS.  A unique prefix
names a flag; a repeated flag keeps its last value, but each --format
adds one.  --window takes four ints, negative ones too.  -h or --help,
first or after the subcommand, prints help made from the table.

Every subcommand builds a JobConfig, turns it into a canonical JSON
blob, and uses the sha256 of the blob and of the package's own sources
as the cache key, so a changed engine never reads an older engine's
bytes.  Artifacts are pure functions of the config: no timestamps and
no filesystem paths inside the bytes.  Exit codes: 0 success or help;
2 an argv the table refuses, a config over an engine limit or bad input,
with `error: ...` on stderr and nothing written; 3 engine-level failure
(a computation that refused to certify itself).

Importing this module loads the engines that the ext, fgl and defect
handlers run, so their compile time is paid at import and not inside a
job.  The ko-ss, may and margolis jobs live beside their engines
(ssq.ko_ss_job, may.may_job, margolis.margolis_job): their handlers
here import that module and call the job, and the hashing and base64
coding the cache uses load inside the functions that need them, so no
other job compiles them.  Every JSON artifact is charts.json_bytes.
"""

import errno
import json
import os
import sys
from pathlib import Path
from types import SimpleNamespace

from .charts import chart_from_ext, chart_to_tsv, json_bytes, render_chart
from .defect import catalogue, verdict_table
from .ext import ext_ranks, operator_pairs
from .fgl import er_defect_witness
from .gradedlin import check_prime
from .steenrod import MAX_FAMILY_HEIGHT, Profile

__all__ = ["JobConfig", "ConfigError", "main", "run_job"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_COMPUTE = 3
CACHE_ENV = "CHROMADEFECT_CACHE"
# largest fgl series cap: admits ER(9) at its default cap 2^9 + 8.
# Whole jobs on a 2 vCPU host: fgl --n 7 took 0.23 s, --n 8 0.55 s and
# --n 9 3.5 s, each at 20-21 MB peak.  The witness alone at n = 10
# (cap 1032) took 40 s; the cost grows 6-12x per height from n = 8,
# so a larger job is refused before it computes
MAX_FGL_CAP = 520
# operator pairs (a, b) with deg a + deg b <= t_max, the most products
# an ext job's resolution can form (ext.operator_pairs).  Products take
# most of a large job's time; memory stays small.  Whole jobs on a
# 2 vCPU host, peak RSS read by a small launcher: A(1) at p = 2 through
# stem 40, s 20 (64 pairs) took 0.12 s and 15 MB peak, A(2) through
# stem 40, s 10 (4,096) 0.24 s and 15 MB.  Near the limit, T(0) at
# p = 2 through stem 40, s 8 (187,288) took 4.7 s and 23 MB, T(1)
# through stem 89, s 4 (188,651) 4.8 s and 29 MB, and A(3) through
# stem 50, s 4 (196,059) 3.8 s and 21 MB.  T(0) through stem 87, s 1
# (7.7 million) is refused; its resolution alone took 8.5 s and 33 MB
MAX_EXT_OPERATOR_PAIRS = 200_000
# largest ext window, in cells (s_max + 1) * (t_max + 1), checked before
# the operator pairs are counted; the job visits every cell
MAX_EXT_CELLS = 4096
# largest may E1 page, in window cells plus monomials; each cell and
# each monomial is an object the pages keep.  The whole job, E1 and E2
# in every format, on a 2 vCPU host: p = 2, n = 1, stem 60, s 16 (1,037
# cells, 46,418 monomials) took 1.3-2.0 s and 42 MB peak; p = 3, n = 0,
# stem 185, s 10 (2,046 cells, 57,858 monomials), 3.0-4.1 s and 55 MB,
# E2 0.4-0.8 s of it; p = 5, n = 1, stem 9999, s 4 (50,000 cells, 2,999
# monomials), 0.4-0.5 s and 33 MB
MAX_MAY_E1_SIZE = 60_000
# largest ko-ss window, in cells: the laurent pages over 180,901 cells
# took 2.8 s and 79 MB, over 501,501 cells 9.5 s and 177 MB
MAX_KO_SS_CELLS = 250_000
# largest defect stem cap: the ko and tmf bounds read the Koszul closed
# form through the cap, which costs a Poincare series of cap + 2 terms
# per family, and the cap names the window each bound certifies.  On a
# 2 vCPU host the whole job, `python -m chromadefect.cli defect`, took
# 0.05-0.10 s at caps 1, 24 and 1000, with the package's bytecode
# cached or not, 14 MB peak read by a small launcher: 0.06-0.07 s of it
# interpreter start (`python -c pass`), importing chromadefect.cli
# 28-32 ms without bytecode and 3-4 ms with it, and `main` 2-3 ms at
# caps 1 and 24 and 3-5 ms at 1000.  The limit is kept as one of the
# CLI's documented refusals
MAX_DEFECT_CAP = 1000
FORMATS = ("tsv", "json", "svg")

# per-subcommand defaults and allowed output formats
FORMAT_POLICY = {
    "ext": (("tsv", "json", "svg"), ("tsv", "svg")),
    "may": (("tsv", "json", "svg"), ("tsv", "svg")),
    "margolis": (("tsv", "json"), ("json",)),
    "fgl": (("tsv", "json"), ("json",)),
    "defect": (("tsv", "json"), ("tsv",)),
    "ko-ss": (("tsv", "json", "svg"), ("tsv", "svg")),
}


class ConfigError(ValueError):
    """Bad flags or unreadable input; maps to exit code 2."""


class JobConfig:
    """One validated CLI job.

    `params` and `payload` (the module a margolis job reads) hold
    everything that can change the artifact bytes; everything that
    cannot (output directory, cache toggle) stays out, so the cache key
    never splits on plumbing.
    """

    __slots__ = ("subcommand", "params", "out_dir", "use_cache", "payload")

    def __init__(self, subcommand, params, out_dir=".", use_cache=True, payload=None):
        if subcommand not in FORMAT_POLICY:
            raise ConfigError(f"unknown subcommand {subcommand!r}")
        self.subcommand = subcommand
        self.params = dict(params)
        self.out_dir = out_dir
        self.use_cache = use_cache
        self.payload = payload

    def canonical(self) -> str:
        blob = {"subcommand": self.subcommand, "params": self.params}
        return json.dumps(blob, sort_keys=True, separators=(",", ":"))

    def key(self) -> str:
        """Cache key: the canonical config, the payload as compact JSON
        (in its own key order, which can order a module's operators)
        and the engine fingerprint."""
        import hashlib

        payload = json.dumps(self.payload, separators=(",", ":"))
        blob = self.canonical() + "\n" + payload + "\n" + _engine_fingerprint()
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


def _check_positive(name, value) -> int:
    if value < 1:
        raise ConfigError(f"{name} must be positive, got {value}")
    return value


def _resolve_formats(subcommand, requested):
    allowed, default = FORMAT_POLICY[subcommand]
    if not requested:
        return sorted(default)
    for fmt in requested:
        if fmt not in allowed:
            raise ConfigError(
                f"format {fmt!r} is not available for {subcommand} "
                f"(allowed: {', '.join(allowed)})"
            )
    return sorted(set(requested))


# ---------------------------------------------------------------------------
# subcommand implementations: JobConfig -> {filename: bytes}


def _ext_problem(params):
    """(profile, s_max, t_max) of an ext job."""
    profile = getattr(Profile, params["family"])(params["prime"], params["n"])
    s_max = params["s_max"]
    return profile, s_max, params["stem_max"] + s_max


def _check_ext_size(params):
    """Refuse an ext window over MAX_EXT_CELLS cells, then a job whose
    operator pairs pass MAX_EXT_OPERATOR_PAIRS; bounding the window
    first keeps the Poincare series short."""
    cells = (params["s_max"] + 1) * (params["stem_max"] + params["s_max"] + 1)
    if cells > MAX_EXT_CELLS:
        raise ConfigError(f"the Ext window has {cells} cells, over the limit {MAX_EXT_CELLS}")
    profile, _, t_max = _ext_problem(params)
    need = operator_pairs(profile, t_max)
    if need > MAX_EXT_OPERATOR_PAIRS:
        raise ConfigError(
            f"the resolution may multiply {need} operator pairs, "
            f"over the limit {MAX_EXT_OPERATOR_PAIRS}"
        )


def _check_may_size(params):
    """Refuse a may page over MAX_MAY_E1_SIZE window cells plus E1
    monomials, bounding the window before counting monomials in it."""
    from .may import e1_monomial_count

    cells = (params["stem_max"] + 1) * (params["s_max"] + 1)
    if cells > MAX_MAY_E1_SIZE:
        raise ConfigError(f"the E1 window has {cells} cells, over the limit {MAX_MAY_E1_SIZE}")
    size = cells + e1_monomial_count(
        params["n"], params["prime"], params["stem_max"], params["s_max"]
    )
    if size > MAX_MAY_E1_SIZE:
        raise ConfigError(
            f"the E1 page has {size} cells and monomials, over the limit {MAX_MAY_E1_SIZE}"
        )


def cmd_ext(cfg: JobConfig):
    p = cfg.params["prime"]
    fam = cfg.params["family"]
    n = cfg.params["n"]
    # t <= stem_max + s_max sees the stems past stem_max only in part
    chart = ext_ranks(*_ext_problem(cfg.params)).stems_through(cfg.params["stem_max"])
    base = f"ext_{fam.lower()}{n}_p{p}"
    out = {}
    if "tsv" in cfg.params["formats"]:
        out[f"{base}.tsv"] = chart.to_tsv().encode("utf-8")
    if "json" in cfg.params["formats"]:
        cells = [
            {"s": s, "t": t, "stem": t - s, "dim": d}
            for (s, t), d in sorted(chart.dims.items())
            if d
        ]
        out[f"{base}.json"] = json_bytes({"label": chart.label, "cells": cells})
    if "svg" in cfg.params["formats"]:
        doc = chart_from_ext(chart)
        out[f"{base}.svg"] = render_chart(doc)
        out[f"{base}_chart.tsv"] = chart_to_tsv(doc).encode("utf-8")
    return out


def cmd_may(cfg: JobConfig):
    from .may import may_job

    return may_job(cfg.params)


def cmd_margolis(cfg: JobConfig):
    from .margolis import InputError, margolis_job

    # InputError is a verdict on the input: a malformed or inconsistent
    # module, an unknown subalgebra, or a missing operator; any other
    # ValueError is the engine refusing to certify
    try:
        return margolis_job(cfg.payload, cfg.params)
    except InputError as exc:
        raise ConfigError(str(exc)) from None


def cmd_fgl(cfg: JobConfig):
    report = er_defect_witness(cfg.params["n"], cap=cfg.params["cap"])
    base = f"fgl_er{cfg.params['n']}"
    out = {}
    if "json" in cfg.params["formats"]:
        out[f"{base}.json"] = json_bytes(report)
    if "tsv" in cfg.params["formats"]:
        lines = ["height\tdoubling-degree\tinverse-obstructed"]
        for h in sorted(report["doubling_degrees"], key=int):
            lines.append(
                f"{h}\t{report['doubling_degrees'][h]}\t{report['inverse_obstructed'][h]}"
            )
        out[f"{base}.tsv"] = ("\n".join(lines) + "\n").encode("utf-8")
    return out


def cmd_defect(cfg: JobConfig):
    verdicts = catalogue(stem_cap=cfg.params["stem_cap"])
    out = {}
    if "tsv" in cfg.params["formats"]:
        out["defect_table.tsv"] = verdict_table(verdicts).encode("utf-8")
    if "json" in cfg.params["formats"]:
        out["defect_table.json"] = json_bytes([v.to_json() for v in verdicts])
    return out


def cmd_ko_ss(cfg: JobConfig):
    from .ssq import ko_ss_job

    return ko_ss_job(cfg.params)


JOBS = {
    "ext": cmd_ext,
    "may": cmd_may,
    "margolis": cmd_margolis,
    "fgl": cmd_fgl,
    "defect": cmd_defect,
    "ko-ss": cmd_ko_ss,
}


def run_job(cfg: JobConfig):
    """Dispatch a validated config; returns {filename: bytes}."""
    return JOBS[cfg.subcommand](cfg)


# ---------------------------------------------------------------------------
# cache


def _cache_dir() -> Path:
    root = os.environ.get(CACHE_ENV)
    if root:
        return Path(root)
    return Path.home() / ".cache" / "chromadefect"


def cache_load(key):
    import base64

    path = _cache_dir() / f"{key}.json"
    if not path.is_file():
        return None
    try:
        blob = json.loads(path.read_text(encoding="utf-8"))
        if blob["key"] != key:
            return None  # entry filed under the wrong name
        return {
            name: base64.b64decode(data)
            for name, data in blob["artifacts"].items()
        }
    except (ValueError, KeyError, TypeError, OSError):
        return None  # corrupt entry: fall through to recompute


def cache_store(key, artifacts):
    import base64

    root = _cache_dir()
    root.mkdir(parents=True, exist_ok=True)
    blob = {
        "key": key,
        "artifacts": {
            name: base64.b64encode(data).decode("ascii")
            for name, data in sorted(artifacts.items())
        },
    }
    tmp = root / f".{key}.tmp"
    tmp.write_text(json.dumps(blob, sort_keys=True), encoding="utf-8")
    os.replace(tmp, root / f"{key}.json")


def _write_artifacts(root, artifacts):
    """Write every artifact into root, or none of them: an artifact name
    taken by a directory stops the job before any write, and each file
    goes to a temporary name, renamed into place only once every write
    has succeeded."""
    root.mkdir(parents=True, exist_ok=True)
    for name in artifacts:
        if (root / name).is_dir():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(root / name))
    temps = {}
    try:
        for name in sorted(artifacts):
            temps[name] = root / f".{name}.{os.getpid()}.tmp"
            temps[name].write_bytes(artifacts[name])
        for name in list(temps):
            os.replace(temps.pop(name), root / name)
    finally:
        for tmp in temps.values():
            tmp.unlink(missing_ok=True)


# ---------------------------------------------------------------------------
# argument parsing


# {subcommand: (help, {flag: (kind, default, help)})}; a kind is int, str,
# bool (a switch), list (four ints) or a tuple of choices, and ... as a
# default marks a required flag
SUBCOMMANDS = {
    "ext": ("Ext rank chart of the trivial comodule", {
        "--prime": (int, 2, ""),
        "--family": (("A", "E", "P", "T"), "T", "quotient Hopf algebra family"),
        "--n": (int, 1, f"family height, at most {MAX_FAMILY_HEIGHT}"),
        "--stem-max": (int, 13, ""), "--s-max": (int, 8, ""),
    }),
    "may": ("May spectral sequence E1 with its d1 arrows, and E2", {
        "--prime": (int, 2, ""), "--n": (int, 1, "telescope height"),
        "--stem-max": (int, 13, ""), "--s-max": (int, 8, ""),
    }),
    "margolis": ("freeness verdict for a finite module", {
        "--input": (str, ..., "module description (JSON)"),
        "--subalgebra": (str, "A(1)", 'e.g. "A(1)" or "P(2)"'),
    }),
    "fgl": ("formal-group-law doubling and inversion witness", {
        "--n": (int, 2, "real-theory height"),
        "--cap": (int, None, "series truncation degree"),
    }),
    "defect": ("chromatic-defect verdict table", {
        "--cap": (int, 24, "stem cap for the ko and tmf evenness bounds"),
    }),
    "ko-ss": ("real K-theory descent chart pages", {
        "--variant": (("polynomial", "laurent"), "polynomial", ""),
        "--window": (list, (-4, 16, -2, 14), "stem range, then filtration range"),
    }),
}
COMMON_FLAGS = {
    "--out": (str, ".", "output directory"),
    "--no-cache": (bool, False, "recompute even on a cache hit"),
    "--format": (FORMATS, None, "output format; repeatable (default depends on the subcommand)"),
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


def _help(subcommand=None) -> str:
    """Help text: the subcommands, or one subcommand's flags."""
    if subcommand is None:
        about = "Exact-arithmetic charts and defect tables for the bundled engines."
        rows = [(name, text) for name, (text, _) in SUBCOMMANDS.items()]
    else:
        about, flags = SUBCOMMANDS[subcommand]
        rows = []
        for flag, (kind, default, text) in {**flags, **COMMON_FLAGS}.items():
            flag += ("" if kind is bool else " {%s}" % ",".join(kind) if isinstance(kind, tuple)
                     else " TEXT" if kind is str else " N" * (4 if kind is list else 1))
            if default not in (None, False):
                text += " (required)" if default is ... else f" (default: {default})"
            rows.append((flag, text.strip()))
    width = max(len(left) for left, _ in rows)
    usage = f"usage: chromadefect {subcommand or '<subcommand>'} [flags]"
    return "\n".join([usage, "", about, ""] + [f"  {a:<{width}}  {b}" for a, b in rows]) + "\n"


def parse_args(argv) -> SimpleNamespace:
    """The job namespace for argv, read by the grammar in the module
    docstring, or SimpleNamespace(help=text) for -h or --help."""
    rest = list(argv)
    subcommand = rest.pop(0) if rest and rest[0] in SUBCOMMANDS else None
    flags = {**SUBCOMMANDS[subcommand][1], **COMMON_FLAGS} if subcommand else {}
    args = {flag: default for flag, (_, default, _) in flags.items()}
    known = [*flags, *HELP_FLAGS]
    need = f"need a subcommand first: {', '.join(SUBCOMMANDS)}"
    while rest:
        token = rest.pop(0)
        name, eq, value = token.partition("=")
        hits = [f for f in known if name == f or len(name) > 2 and f.startswith(name)]
        if len(hits) > 1 and name not in hits:
            raise ConfigError(f"ambiguous flag {name}: could be {', '.join(hits)}")
        if not hits:
            raise ConfigError(f"unrecognized argument {token!r}" if subcommand else need)
        flag = name if name in hits else hits[0]
        kind = flags[flag][0] if flag in flags else bool  # help is a switch too
        count = 0 if kind is bool else 4 if kind is list else 1
        values = [value] if eq else []
        while not eq and rest and len(values) < count and _is_value(rest[0]):
            values.append(rest.pop(0))
        if len(values) != count:
            raise ConfigError(f"{flag} takes {count or 'no'} value{'s' * (count != 1)}")
        try:
            values = [int(v) for v in values] if kind in (int, list) else values
        except ValueError:
            raise ConfigError(f"{flag} takes integers, got {' '.join(values)!r}") from None
        if isinstance(kind, tuple) and values[0] not in kind:
            raise ConfigError(f"{flag} takes one of {', '.join(kind)}, got {values[0]!r}")
        if flag in HELP_FLAGS:
            return SimpleNamespace(help=_help(subcommand))
        if flag == "--format":
            values = (args[flag] or []) + values
        keep_list = kind is list or flag == "--format"
        args[flag] = True if kind is bool else values if keep_list else values[0]
    if subcommand is None:
        raise ConfigError(need)
    missing = [flag for flag, value in args.items() if value is ...]
    if missing:
        raise ConfigError(f"{subcommand} needs {', '.join(missing)}")
    return SimpleNamespace(subcommand=subcommand, **{
        "formats" if flag == "--format" else flag[2:].replace("-", "_"): value
        for flag, value in args.items()
    })


def _config_from_args(args) -> JobConfig:
    formats = _resolve_formats(args.subcommand, args.formats)
    params = {"formats": formats}
    payload = None
    if args.subcommand in ("ext", "may"):
        try:
            params["prime"] = check_prime(args.prime)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        params["n"] = args.n
        if args.n < 0:
            raise ConfigError(f"height must be nonnegative, got {args.n}")
        params["stem_max"] = _check_positive("stem cap", args.stem_max)
        params["s_max"] = _check_positive("s cap", args.s_max)
        if args.subcommand == "may":
            _check_may_size(params)
        else:
            if args.n > MAX_FAMILY_HEIGHT:
                raise ConfigError(f"height {args.n} is over the limit {MAX_FAMILY_HEIGHT}")
            params["family"] = args.family
            _check_ext_size(params)
    elif args.subcommand == "margolis":
        try:
            payload = json.loads(Path(args.input).read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise ConfigError(f"unreadable input {args.input}: {exc}") from None
        params["subalgebra"] = args.subalgebra
    elif args.subcommand == "fgl":
        n = params["n"] = _check_positive("height", args.n)
        # compare exponents first, so a huge height never builds 2^n
        if n >= MAX_FGL_CAP.bit_length():
            raise ConfigError(
                f"height {n} needs a cap above 2^{n}, over the limit {MAX_FGL_CAP}"
            )
        cap = 2**n + 8 if args.cap is None else args.cap
        if cap > MAX_FGL_CAP:
            raise ConfigError(f"cap {cap} is over the limit {MAX_FGL_CAP}")
        if args.cap is not None and args.cap < 2**n + 1:
            raise ConfigError(
                f"cap {args.cap} cannot see degree {2**n}; need at least {2**n + 1}"
            )
        params["cap"] = args.cap
    elif args.subcommand == "defect":
        params["stem_cap"] = _check_positive("stem cap", args.cap)
        if args.cap > MAX_DEFECT_CAP:
            raise ConfigError(f"stem cap {args.cap} is over the limit {MAX_DEFECT_CAP}")
    elif args.subcommand == "ko-ss":
        params["variant"] = args.variant
        lo, hi, flo, fhi = args.window
        if lo > hi or flo > fhi:
            raise ConfigError(f"empty window {tuple(args.window)}")
        cells = (hi - lo + 1) * (fhi - flo + 1)
        if cells > MAX_KO_SS_CELLS:
            raise ConfigError(
                f"the window has {cells} cells, over the limit {MAX_KO_SS_CELLS}"
            )
        params["window"] = [lo, hi, flo, fhi]
    return JobConfig(
        args.subcommand,
        params,
        out_dir=args.out,
        use_cache=not args.no_cache,
        payload=payload,
    )


def main(argv=None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        if "help" in vars(args):
            print(args.help, end="")
            return EXIT_OK
        cfg = _config_from_args(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    key = cfg.key() if cfg.use_cache else None
    artifacts = cache_load(key) if key else None
    if artifacts is None:
        try:
            artifacts = run_job(cfg)
        except ConfigError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        except ValueError as exc:
            print(f"compute error: {exc}", file=sys.stderr)
            return EXIT_COMPUTE
        if cfg.use_cache:
            try:
                cache_store(key, artifacts)
            except OSError as exc:
                # the artifacts stand; an unusable cache costs a later hit
                print(f"warning: cache not written: {exc}", file=sys.stderr)
    else:
        print(f"cache hit {key[:12]}", file=sys.stderr)

    out_root = Path(cfg.out_dir)
    try:
        _write_artifacts(out_root, artifacts)
    except OSError as exc:
        print(f"error: cannot write to --out {cfg.out_dir}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    for name in sorted(artifacts):
        print(f"wrote {out_root / name}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
