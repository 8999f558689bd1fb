"""The JSON artifact encoding the package had before its one-pass
writer: the reference for `chromadefect.charts.json_bytes`.

`json_bytes` must return these bytes for every value an artifact can
hold.
"""

import json


def json_bytes(obj) -> bytes:
    """A JSON artifact: sorted keys, one-space indent, final newline."""
    return (json.dumps(obj, indent=1, sort_keys=True) + "\n").encode("utf-8")
