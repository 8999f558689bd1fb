"""Run one chromadefect CLI job in this process and report its costs.

    python3 child.py [--trace SPANS.json] -- <chromadefect argv>
    python3 child.py --calibrate

Prints, as the last line of stdout, a JSON object with `setup_s` (wall
seconds to import `chromadefect.cli`).  A job adds `job_s` (wall seconds
of `cli.main(argv)`), `exit_code`, `peak_rss_mb` (this process's peak
resident memory) and the `gradedlin` backend.  `--calibrate` adds
`calib_s` instead, the seconds of a fixed loop that measures how fast
the host runs Python right now; it runs in its own process so that its
memory never shows in a job's peak.
With `--trace`, the engine layers are wrapped after the import, the
per-layer stats are added under `layers`, and the spans are written to
the given file.
"""

import json
import resource
import sys
import time


def calibrate():
    """Seconds for 200k updates of a dict with tuple keys, the kind of
    work the engines do; the dict outgrows the CPU caches, so memory
    contention from other tenants slows it as it slows the jobs."""
    start = time.perf_counter()
    table = {}
    for i in range(200_000):
        key = (i & 1023, i >> 10)
        table[key] = table.get(key, 0) + i
    return time.perf_counter() - start


def main(args):
    start = time.perf_counter()
    import chromadefect.cli as cli

    record = {"setup_s": time.perf_counter() - start}
    if args == ["--calibrate"]:
        record["calib_s"] = calibrate()
        print(json.dumps(record))
        return 0
    split = args.index("--")
    opts, argv = args[:split], args[split + 1 :]
    tracer = None
    if opts[:1] == ["--trace"]:
        from layers import Tracer

        tracer = Tracer()
        tracer.install()
    start = time.perf_counter()
    code = cli.main(argv)
    record["job_s"] = time.perf_counter() - start
    record["exit_code"] = code
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    from chromadefect.gradedlin import BACKEND_NAME

    record["backend"] = BACKEND_NAME
    if tracer is not None:
        record["layers"] = tracer.layer_stats()
        tracer.write(opts[1], " ".join(argv))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
