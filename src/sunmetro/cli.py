"""Command-line interface.

Subcommands
-----------
bound     Evaluate the estimation bound for a probe file and a chart file.
scan      Sweep particle number and tabulate bounds as CSV (optionally SVG).
check     Grade a probe: isotropy order, intrinsic bound, floor, saturability.
optimize  Search for a low-bound probe on symmetric(n, 𝒩).

Exit codes: 0 success, 1 usage or parse problem or running out of memory,
2 singular information matrix, 3 optimizer non-convergence.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from functools import cache
from itertools import islice, repeat
from math import isfinite

import numpy as np

from .algebra import gellmann_basis
from .channel import Parametrization, _number
from .exceptions import (
    DimensionCapError,
    InvalidElementError,
    NotIrreducibleError,
    OptimizationFailedError,
    SingularInformationError,
)
from .metrology import build_report, intrinsic_floor
from .probes import (
    OptimizerConfig,
    ProbeSpec,
    build_probe,
    make_ghz,
    optimize_probe,
)
from .representation import (
    DIMENSION_CAP,
    casimir,
    check_cap,
    symmetric_representation,
    symmetric_sector,
)
from .svg import render_loglog

CSV_COLUMNS = ("n", "N", "casimir", "cs_ghz", "cs_floor", "cs_optimized")

_PARSE_ERRORS = (ValueError, OSError, NotIrreducibleError)


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; this tool reserves 2 for
    # singular information, so usage problems exit 1 instead
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


#: 12 significant digits, the precision of every number the CLI prints
_fmt = "{:.12g}".format


def _round_floats(diag: dict) -> dict:
    """An error's diagnostics with each float rounded to 12 significant
    digits, and a non-finite one written as its name, such as "inf"."""
    return {
        key: (float(_fmt(value)) if isfinite(value) else str(value))
        if isinstance(value, float) else value
        for key, value in diag.items()
    }


def _float_texts(values) -> list[str]:
    """Each float rounded to 12 significant digits and printed as json prints
    it.  float.__format__ raises TypeError on any value that is not a float.

    A float of at most 12 significant digits reprs to exactly those digits,
    so only the notation can differ from the ``.12g`` text: exponent form,
    which repr keeps only below 1e-4 or from 1e16, and the ".0" that repr
    gives a whole number.  Texts with an "e" or an "n" (inf, nan) are
    written by repr; the rest are kept, with ".0" after a whole number.
    """
    texts = []
    for text in map(float.__format__, values, repeat(".12g")):
        if "e" in text or "n" in text:
            r = float(text)
            text = repr(r) if isfinite(r) else f'"{r!r}"'
        elif "." not in text:
            text += ".0"
        texts.append(text)
    return texts


def _layout(obj, pad: str) -> str:
    """The text json.dumps(obj, indent=2) gives after the line start ``pad``,
    with every float rounded to 12 significant digits.

    Documents hold string-keyed dicts, None, booleans, ints, floats, and
    non-empty lists of floats or of such lists; the floats of a list, or of
    a list of lists, are formatted in one batch.  Any other value raises
    TypeError.
    """
    inner = pad + "  "
    sep = "," + inner
    if type(obj) is dict and obj and all(type(key) is str for key in obj):
        items = [json.dumps(key) + ": " + _layout(value, inner) for key, value in obj.items()]
        return "{" + inner + sep.join(items) + pad + "}"
    if type(obj) is list and obj:
        if all(type(row) is list and row for row in obj):
            texts = iter(_float_texts([v for row in obj for v in row]))
            rows = ["[" + inner + "  " + (sep + "  ").join(islice(texts, len(row))) + inner + "]"
                    for row in obj]
            return "[" + inner + sep.join(rows) + pad + "]"
        return "[" + inner + sep.join(_float_texts(obj)) + pad + "]"
    if obj is None:
        return "null"
    if type(obj) is bool:
        return "true" if obj else "false"
    if type(obj) is int:
        return str(obj)
    return _float_texts((obj,))[0]


def _emit(doc: dict, out_path: str | None) -> None:
    text = _layout(doc, "\n") + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path} is nested too deeply to read") from None


def _cap(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _parse_theta(text: str) -> np.ndarray:
    try:
        return np.array([float(part) for part in text.split(",") if part.strip() != ""])
    except ValueError as exc:
        raise InvalidElementError(f"cannot parse --theta {text!r}: {exc}") from None


def cmd_bound(args) -> int:
    spec = ProbeSpec.from_json(_load_json(args.probe))
    state = build_probe(spec, cap=args.cap)
    chart = Parametrization.from_json(_load_json(args.parametrization))
    theta = _parse_theta(args.theta)
    weight = args.weight
    if weight not in ("intrinsic", "identity"):
        doc = _load_json(weight)
        try:
            weight = np.array([list(map(_number, row)) for row in doc])
        except (TypeError, ValueError, OverflowError) as exc:
            raise InvalidElementError(f"malformed weight matrix in {args.weight}: {exc}") from None
    report = build_report(state, chart, theta, weight=weight)
    if report.weighted_bound is None:
        raise report.singular_error()
    _emit(report.to_json(), args.out)
    return 0


def cmd_check(args) -> int:
    spec = ProbeSpec.from_json(_load_json(args.probe))
    state = build_probe(spec, cap=args.cap)
    report = build_report(state)
    doc = {
        **report.unpolarized,
        "intrinsic_bound": report.intrinsic_bound,
        "floor": intrinsic_floor(state.rep),
        "saturable": report.flags["saturable"],
    }
    _emit(doc, args.out)
    return 0


def _scan_row(n: int, particles: int, wanted: set, cap: int, seed: int | None) -> dict:
    row: dict = {"n": n, "N": particles}
    try:
        # each row is a new sector, so it is built outside the held ones
        # (see symmetric_sector); the cap is compared before the basis is built
        check_cap(n, particles, cap)
        rep = symmetric_representation(gellmann_basis(n), particles, cap=cap)
    except DimensionCapError:
        return {**row, **dict.fromkeys(CSV_COLUMNS[2:], "skipped")}
    row["casimir"] = casimir(rep)
    row["cs_floor"] = intrinsic_floor(rep)
    if "ghz" in wanted:
        bound = build_report(make_ghz(n, particles, cap=cap, rep=rep)).intrinsic_bound
        row["cs_ghz"] = "singular" if bound is None else bound
    if "optimized" in wanted:
        try:
            result = optimize_probe(rep, OptimizerConfig(seed=seed + particles))
            row["cs_optimized"] = result.bound_achieved
        except OptimizationFailedError:
            # no restart found a regular covariance: the bound does not exist
            row["cs_optimized"] = "singular"
    return row


def cmd_scan(args) -> int:
    wanted = {part.strip() for part in args.states.split(",") if part.strip()}
    unknown = wanted - {"ghz", "floor", "optimized"}
    if unknown:
        raise InvalidElementError(f"unknown scan states {sorted(unknown)}")
    if args.nmin < 1 or args.nmax < args.nmin:
        raise InvalidElementError(f"bad particle range [{args.nmin}, {args.nmax}]")
    if "optimized" in wanted:
        if args.seed is None:
            raise InvalidElementError("--seed is required when scanning optimized probes")
        # row N runs the optimizer with seed S + N; the first row has the smallest
        if args.seed + args.nmin < 0:
            raise InvalidElementError(
                f"--seed {args.seed} gives row N = {args.nmin} the negative seed "
                f"{args.seed + args.nmin}; seeds S + N must be >= 0"
            )
    rows = [
        _scan_row(args.n, p, wanted, args.cap, args.seed)
        for p in range(args.nmin, args.nmax + 1)
    ]

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow([_cell(row.get(column)) for column in CSV_COLUMNS])
    text = buffer.getvalue()
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)

    if args.plot:
        series = []
        for column in ("cs_ghz", "cs_floor", "cs_optimized"):
            pts = [
                (row["N"], row[column])
                for row in rows
                if isinstance(row.get(column), float)
            ]
            if pts:
                series.append((column, [p for p, _ in pts], [v for _, v in pts]))
        svg = render_loglog(
            series,
            title=f"intrinsic bound scan, n = {args.n}",
            xlabel="particle number N",
            ylabel="bound",
        )
        with open(args.plot, "w", encoding="utf-8") as fh:
            fh.write(svg)
    return 0


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    return _fmt(value)


def cmd_optimize(args) -> int:
    doc = _load_json(args.config) if args.config else {}
    if args.seed is not None and isinstance(doc, dict):
        doc = {**doc, "seed": args.seed}
    config = OptimizerConfig.from_json(doc)
    if config.seed is None:
        raise InvalidElementError("a seed is required: pass --seed or put one in the config")
    rep = symmetric_sector(args.n, args.particles, cap=args.cap)
    result = optimize_probe(rep, config)
    amplitudes = [[z.real, z.imag] for z in result.state.vector]
    _emit(
        {
            "amplitudes": amplitudes,
            "bound_achieved": result.bound_achieved,
            "floor": result.floor,
            "converged": result.converged,
        },
        args.out,
    )
    return 0 if result.converged else 3


@cache
def _build_parser() -> argparse.ArgumentParser:
    # built once per process: parse_args keeps no state between calls, and
    # the build is a large share of a small request's time
    parser = _Parser(prog="sunmetro", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    bound = sub.add_parser("bound", help="evaluate the bound for a probe and a chart")
    bound.add_argument("probe", help="probe spec JSON file")
    bound.add_argument("parametrization", help="parametrization JSON file")
    bound.add_argument("--theta", required=True, help="comma-separated parameter point")
    bound.add_argument(
        "--weight",
        default="intrinsic",
        help="'intrinsic', 'identity', or a JSON file with a weight matrix",
    )
    bound.add_argument("--cap", type=_cap, default=DIMENSION_CAP)
    bound.add_argument("--out", default=None, help="write JSON here instead of stdout")
    bound.set_defaults(func=cmd_bound)

    scan = sub.add_parser("scan", help="sweep particle number, write CSV")
    scan.add_argument("--n", type=int, required=True, help="number of modes")
    scan.add_argument("--nmin", type=int, required=True, help="first particle number")
    scan.add_argument("--nmax", type=int, required=True, help="last particle number")
    # floor stays accepted so that existing command lines keep working
    scan.add_argument(
        "--states",
        default="ghz,floor",
        help="comma subset of ghz,floor,optimized (default ghz,floor); "
        "cs_floor is written on every row, so floor selects nothing",
    )
    scan.add_argument("--out", default=None, help="CSV path (default stdout)")
    scan.add_argument("--plot", default=None, help="also write an SVG log-log plot here")
    scan.add_argument("--seed", type=int, default=None, help="seed for optimized probes")
    # rows run serially, since threads gave no speed-up on this GIL-bound
    # loop; --jobs stays accepted so that existing command lines keep working
    scan.add_argument("--jobs", type=int, default=1, help="accepted; rows run in order")
    scan.add_argument("--cap", type=_cap, default=DIMENSION_CAP)
    scan.set_defaults(func=cmd_scan)

    check = sub.add_parser("check", help="grade a probe state")
    check.add_argument("probe", help="probe spec JSON file")
    check.add_argument("--cap", type=_cap, default=DIMENSION_CAP)
    check.add_argument("--out", default=None)
    check.set_defaults(func=cmd_check)

    opt = sub.add_parser("optimize", help="search for a low-bound probe")
    opt.add_argument("--n", type=int, required=True, help="number of modes")
    opt.add_argument("--particles", type=int, required=True, help="particle number")
    opt.add_argument("--config", default=None, help="optimizer config JSON file")
    opt.add_argument("--seed", type=int, default=None, help="overrides the config seed")
    opt.add_argument("--cap", type=_cap, default=DIMENSION_CAP)
    opt.add_argument("--out", default=None)
    opt.set_defaults(func=cmd_optimize)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except SingularInformationError as exc:
        diag = {
            "error": str(exc),
            "rank": exc.rank,
            "condition_number": exc.condition_number,
        }
        sys.stderr.write(json.dumps(_round_floats(diag)) + "\n")
        return 2
    except OptimizationFailedError as exc:
        sys.stderr.write(json.dumps({"error": str(exc), **_round_floats(exc.diagnostics)}) + "\n")
        return 3
    except _PARSE_ERRORS as exc:
        sys.stderr.write(f"sunmetro: error: {exc}\n")
        return 1
    except MemoryError:
        sys.stderr.write(
            "sunmetro: error: out of memory; --cap bounds the sector dimension D, "
            "not the su(n) work, which grows with n\n"
        )
        return 1


if __name__ == "__main__":
    sys.exit(main())
