"""Command-line interface.  The argparse type of each option reads its value
(a matrix, a window, comma-separated numbers), so the commands get parsed values.
Exit codes: 0 success (including verification pass), 1 usage/IO error,
2 verification failure."""

import argparse
import sys
from functools import partial

import numpy as np

from . import io as qio
from .errors import BadParameter, QlcstError
from .generators import KINDS, gen_signal
from .lct import parse_matrix, parse_numbers
from .qlct import (qlct_fast_forward, qlct_fast_inverse, qlct_forward,
                   qlct_inverse)
from .qlcst import qlcst_analysis, qlcst_reconstruct
from .signal import Grid1D, Grid2D
from .verify import SUITES, run_suite
from .window import parse_window


def _cmd_gen(args):
    grid = Grid2D(*(Grid1D.centered(args.extent, n)
                    for n in (args.n, args.n if args.n2 is None else args.n2)))
    given = {"sigma": args.sigma, "center": args.center, "a": args.a, "n": args.modes}
    qio.write_signal(args.output, gen_signal(args.kind, grid, **{
        name: value for name, value in given.items() if value is not None}))
    return 0


def _cmd_qlct(args):
    if args.inverse:
        op = qlct_fast_inverse if args.fast else qlct_inverse
    else:
        op = qlct_fast_forward if args.fast else qlct_forward
    qio.write_signal(args.output, op(qio.read_signal(args.input), args.m1, args.m2))
    return 0


def _cmd_qlcst(args):
    qio.write_coefficients(args.output, qlcst_analysis(
        qio.read_signal(args.input), args.window, args.m1, args.m2))
    return 0


def _cmd_reconstruct(args):
    c = qio.open_coefficients(args.input)
    # The file holds the matrices and window; a given one must agree with it.
    for name in ("m1", "m2", "window"):
        if getattr(args, name) not in (None, getattr(c, name)):
            raise BadParameter("--%s differs from the value stored in %s"
                               % (name, args.input))
    qio.write_signal(args.output, qlcst_reconstruct(c))
    return 0


def _cmd_export(args):
    c = qio.open_coefficients(args.input)
    mag = qio.coefficient_slice(c, args.slice, args.index)
    if args.format == "csv":
        qio.export_slice_csv(args.output, mag)
    else:
        qio.export_slice_pgm(args.output, mag)
    return 0


def _cmd_verify(args):
    passed, lines = run_suite(args.suite)
    for line in lines:
        print(line)
    return 0 if passed else 2


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qlcst",
        description="Quaternion linear canonical S-transform toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a test signal")
    p.add_argument("--kind", required=True, choices=KINDS)
    p.add_argument("--sigma", type=float)
    p.add_argument("--center", type=partial(parse_numbers, count=2, kind=float,
                                            form="two numbers x1,x2"))
    p.add_argument("--a", type=float)
    p.add_argument("--modes", help="hermite orders n1,n2",
                   type=partial(parse_numbers, count=2, kind=int,
                                form="two integers n1,n2"))
    p.add_argument("--n", type=int, default=32)
    p.add_argument("--n2", type=int)
    p.add_argument("--extent", type=float, default=8.0)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("qlct", help="two-sided QLCT of a signal file")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--m1", required=True, type=parse_matrix, help='matrix "A,B,C,D"')
    p.add_argument("--m2", required=True, type=parse_matrix)
    p.add_argument("--inverse", action="store_true")
    p.add_argument("--fast", action="store_true")
    p.set_defaults(func=_cmd_qlct)

    p = sub.add_parser("qlcst", help="Q-LCST coefficients of a signal file")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--m1", required=True, type=parse_matrix)
    p.add_argument("--m2", required=True, type=parse_matrix)
    p.add_argument("--window", required=True, type=parse_window,
                   help='"fixed-gauss:s1,s2" | "s-gauss" | "table:PATH"')
    p.set_defaults(func=_cmd_qlcst)

    p = sub.add_parser("reconstruct", help="synthesize a signal from coefficients")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--m1", type=parse_matrix,
                   help="optional; must equal the file's matrix")
    p.add_argument("--m2", type=parse_matrix,
                   help="optional; must equal the file's matrix")
    p.add_argument("--window", type=parse_window,
                   help="optional; must equal the file's window")
    p.set_defaults(func=_cmd_reconstruct)

    p = sub.add_parser("export", help="export a coefficient magnitude slice")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--slice", required=True, choices=("u", "w"),
                   help="which index pair is frozen")
    p.add_argument("--index", required=True, help="frozen index pair i,j",
                   type=partial(parse_numbers, count=2, kind=int,
                                form="two integers i,j"))
    p.add_argument("--format", default="csv", choices=("csv", "pgm"))
    p.set_defaults(func=_cmd_export)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=sorted(SUITES))
    p.set_defaults(func=_cmd_verify)

    return parser


def cli_main(argv=None):
    """Run the CLI: a QlcstError, OSError or MemoryError exits 1 with one error
    line, a usage error with argparse's.  Non-finite results are refused."""
    try:
        args = build_parser().parse_args(argv)  # reads every value (types)
        with np.errstate(all="ignore"):
            return args.func(args)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    except (QlcstError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1


def main():
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
