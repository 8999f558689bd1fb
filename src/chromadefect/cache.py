"""The artifact cache: the key of a job and its entries on disk.

A job's key is the sha256 of three lines: its config (subcommand and
params) as canonical JSON with sorted keys, its payload (the JSON
--input names) as compact JSON in its own key order, which can order a
module's operators, and the engine fingerprint.  The fingerprint is the
sha256 over every .py file of the package, by relative path and bytes,
this module and chromadefect.usage included, so a change to any source
file changes every key and a changed engine never reads an older
engine's bytes.  The params and the payload hold everything that can
change the artifact bytes; the output directory and the cache switch
stay out, so a key never splits on plumbing.

An entry is `<key>.json` in $CHROMADEFECT_CACHE (default
~/.cache/chromadefect): {"key": key, "artifacts": {name: base64}},
filed by cli._write_artifacts, the one writer of artifacts and entries.
An entry under the wrong key, with an artifact name that is not a plain
file name, or that does not decode counts as a miss.  chromadefect.cli
imports this module only for a job run with the cache on, so a
--no-cache job neither compiles it nor loads hashlib or base64.
"""

import base64
import errno
import hashlib
import json
import os
from pathlib import Path

from .cli import CACHE_ENV, _write_artifacts

__all__ = ["key", "cache_load", "cache_store"]


def key(subcommand, params, payload) -> str:
    """The cache key of a job: its subcommand, params and payload."""
    config = {"subcommand": subcommand, "params": params}
    blob = "\n".join([json.dumps(config, sort_keys=True, separators=(",", ":")),
                      json.dumps(payload, separators=(",", ":")),
                      _engine_fingerprint()])
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _engine_fingerprint() -> str:
    """sha256 over the package's .py sources, by relative path."""
    root = Path(__file__).resolve().parent
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode("utf-8") + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def _cache_dir() -> str:
    root = os.environ.get(CACHE_ENV)
    if root:
        return root
    home = os.path.expanduser("~")
    if home == "~":  # no home directory: no cache, rather than one in ./~
        raise FileNotFoundError(errno.ENOENT, f"no home directory; set {CACHE_ENV}")
    return os.path.join(home, ".cache", "chromadefect")


def cache_load(key):
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
    coded = {name: base64.b64encode(data).decode("ascii") for name, data in artifacts.items()}
    blob = json.dumps({"key": key, "artifacts": coded}, sort_keys=True).encode("ascii")
    _write_artifacts(_cache_dir(), {f"{key}.json": blob})
