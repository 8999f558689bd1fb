"""The argparse front end the CLI had before its flag table: the
reference for `chromadefect.cli.parse_args`.

`build_parser` is the package's earlier parser, unchanged.  Every argv
it accepts must give `parse_args` a namespace with the same attributes,
and every argv it refuses (`SystemExit(2)`) must be refused by `main`
with exit 2.
"""

import argparse

from chromadefect.cli import FORMATS
from chromadefect.steenrod import MAX_FAMILY_HEIGHT


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chromadefect",
        description="Exact-arithmetic charts and defect tables for the bundled engines.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(sp):
        sp.add_argument("--out", default=".", help="output directory (default: cwd)")
        sp.add_argument("--no-cache", action="store_true", help="recompute even on a cache hit")
        sp.add_argument(
            "--format",
            action="append",
            choices=FORMATS,
            dest="formats",
            help="output format; repeatable (default depends on the subcommand)",
        )

    sp = sub.add_parser("ext", help="Ext rank chart of the trivial comodule")
    sp.add_argument("--prime", type=int, default=2)
    sp.add_argument("--family", choices=("A", "E", "P", "T"), default="T",
                    help="quotient Hopf algebra family")
    sp.add_argument("--n", type=int, default=1,
                    help=f"family height, at most {MAX_FAMILY_HEIGHT}")
    sp.add_argument("--stem-max", type=int, default=13)
    sp.add_argument("--s-max", type=int, default=8)
    common(sp)

    sp = sub.add_parser("may", help="May spectral sequence E1 with its d1 arrows, and E2")
    sp.add_argument("--prime", type=int, default=2)
    sp.add_argument("--n", type=int, default=1, help="telescope height")
    sp.add_argument("--stem-max", type=int, default=13)
    sp.add_argument("--s-max", type=int, default=8)
    common(sp)

    sp = sub.add_parser("margolis", help="freeness verdict for a finite module")
    sp.add_argument("--input", required=True, help="module description (JSON)")
    sp.add_argument("--subalgebra", default="A(1)", help='e.g. "A(1)" or "P(2)"')
    common(sp)

    sp = sub.add_parser("fgl", help="formal-group-law doubling and inversion witness")
    sp.add_argument("--n", type=int, default=2, help="real-theory height")
    sp.add_argument("--cap", type=int, default=None, help="series truncation degree")
    common(sp)

    sp = sub.add_parser("defect", help="chromatic-defect verdict table")
    sp.add_argument("--cap", type=int, default=24,
                    help="stem cap for the ko and tmf evenness bounds")
    common(sp)

    sp = sub.add_parser("ko-ss", help="real K-theory descent chart pages")
    sp.add_argument("--variant", choices=("polynomial", "laurent"), default="polynomial")
    sp.add_argument(
        "--window",
        type=int,
        nargs=4,
        metavar=("STEM_LO", "STEM_HI", "FIL_LO", "FIL_HI"),
        default=(-4, 16, -2, 14),
    )
    common(sp)

    return parser
