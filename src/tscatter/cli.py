"""Command-line front end: CSV in, JSON envelope out.

Subcommands: ``estimate`` (location-scatter), ``scatter`` (pure scatter),
``check-domain``, ``asymptotics``, ``oned``, and ``simulate``. Every run emits
a versioned envelope ``{"version": "v1", "command", "timing_ms", "payload",
"warnings"}``; the payload schema ships in ``docs/result_schema.json``.

Exit codes: 0 success, 1 usage, input or output error, 2 domain violation
(with a structured report in the payload), 3 numerical failure.

The package imports NumPy only; no subcommand loads SciPy.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
import time
from dataclasses import asdict

import numpy as np

from .asymptotics import asymptotic_cov_locscatter, asymptotic_cov_scatter
from .domain_check import EmpiricalSample, check_locscat_domain, check_scatter_domain
from .exceptions import (
    CsvParseError,
    DegeneracyError,
    DomainViolation,
    NotSpdError,
    NumericalBreakdown,
)
from .locscatter import solve_locscatter
from .oned import solve_oned
from .scatter import ScatterConfig, solve_scatter
from .simlab import discrete_sampler, run_clt_experiment

__all__ = ["ingest_csv", "dispatch", "main"]

SCHEMA_VERSION = "v1"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_NUMERICAL = 3

# the warning for a fit that did not converge, by functional
UNCONVERGED = {
    "scatter": "solver stopped before meeting the gradient tolerance",
    "locscatter": "estimate did not meet its convergence certificates",
}


def ingest_csv(source) -> EmpiricalSample:
    """Parse a CSV of observations into a weighted sample.

    One observation per row, numeric cells, UTF-8. A header is auto-detected
    (first row with any non-numeric cell); with a header, a final column named
    ``weight`` supplies nonnegative weights, normalized to sum 1. Ragged rows,
    non-numeric or non-finite cells, and negative weights raise
    :class:`CsvParseError` with the offending row number; rows with no
    non-blank cell are skipped and not counted.

    Plain tables are parsed by ``np.loadtxt``; anything it refuses, and any
    table with a non-finite value, goes to a row-by-row parser, which gives
    the same sample and names the offending row.
    """
    if hasattr(source, "read"):
        text = source.read()
    else:
        with open(source, "r", encoding="utf-8", newline="") as fh:
            text = fh.read()
    header, arr = _fast_table(text) or _row_table(text)
    start = int(header is not None)
    if header and header[-1].lower() == "weight":
        if arr.shape[1] < 2:
            raise CsvParseError("weight column requires at least one coordinate column")
        weights = arr[:, -1]
        points = arr[:, :-1]
        neg = np.nonzero(weights < 0.0)[0]
        if neg.size:
            raise CsvParseError(f"row {start + 1 + int(neg[0])}: negative weight")
        total = weights.sum()
        if total <= 0.0:
            raise CsvParseError("weights sum to zero")
        return EmpiricalSample(points, weights / total)
    return EmpiricalSample(arr)


def _parse_cell(cell, rownum):
    try:
        val = float(cell)
    except ValueError:
        raise CsvParseError(f"row {rownum}: non-numeric cell {cell!r}") from None
    if not np.isfinite(val):
        raise CsvParseError(f"row {rownum}: non-finite cell {cell!r}")
    return val


def _is_numeric(row) -> bool:
    try:
        [_parse_cell(cell, 0) for cell in row]
    except CsvParseError:
        return False
    return True


def _is_blank(row) -> bool:
    return not any(cell.strip() for cell in row)


# Tab, newline and printable ASCII but the quote: outside these, csv.reader
# and float() read text in ways np.loadtxt does not (quoting, control
# characters that loadtxt strips as blanks but float() refuses, non-ASCII digits)
_PLAIN = (bytes(range(32, 127)) + b"\t\n").replace(b'"', b"")


def _fast_table(text: str):
    """``(header, data)`` of a plain table by ``np.loadtxt``, or None where the row parser must decide."""
    text = text.replace("\r\n", "\n")
    if not text.isascii() or text.encode("ascii").translate(None, _PLAIN):
        return None
    lines = text.split("\n")
    first = next((k for k, line in enumerate(lines) if not _is_blank(line.split(","))), None)
    if first is None:
        return None
    header = None
    if not _is_numeric(lines[first].split(",")):
        header = [cell.strip() for cell in lines[first].split(",")]
        first += 1
    # loadtxt skips empty lines and refuses other blank ones, as it refuses
    # ragged rows and bad cells: those all go to the row parser
    if all(_is_blank(line.split(",")) for line in lines[first:]):
        return None
    try:
        arr = np.loadtxt(lines[first:], delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    return (header, arr) if np.isfinite(arr).all() else None


def _row_table(text: str):
    """``(header, data)`` parsed row by row, as csv.reader and float() read them."""
    rows = [row for row in csv.reader(io.StringIO(text, newline="")) if not _is_blank(row)]
    if not rows:
        raise CsvParseError("no data rows found")
    header = None
    start = 0
    if not _is_numeric(rows[0]):
        header = [cell.strip() for cell in rows[0]]
        start = 1
        if not rows[start:]:
            raise CsvParseError("header present but no data rows")
    width = len(rows[start])
    data = []
    for offset, row in enumerate(rows[start:], start=start + 1):
        if len(row) != width:
            raise CsvParseError(f"row {offset}: expected {width} cells, got {len(row)}")
        data.append([_parse_cell(cell, offset) for cell in row])
    return header, np.asarray(data, dtype=float)


def _round_trip(obj):
    """Make payload values JSON-ready (floats survive a round trip exactly).

    NaN and infinities have no JSON form and become null.
    """
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind == "f" and np.isfinite(obj).all():
            return obj.tolist()  # Python floats, nothing to replace
        return _round_trip(obj.tolist())
    # bool subclasses int, so it has to be caught before the int branch
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        obj = float(obj)
        return obj if math.isfinite(obj) else None
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (list, tuple)):
        return [_round_trip(x) for x in obj]
    if isinstance(obj, dict):
        return {k: _round_trip(v) for k, v in obj.items()}
    return obj


def dispatch(args: argparse.Namespace, warnings: list[str]) -> dict:
    """Run one command parsed by ``build_parser``; return its payload.

    Warnings are appended to ``warnings`` as they arise, so a command that
    fails later still reports them. Payload values may still be numpy
    objects; :func:`main` encodes them.
    Settings out of range raise ``ValueError`` downstream: ``ScatterConfig``
    rejects nu and tol that are not positive and finite and max-iter < 1 for
    the commands that fit, the domain check rejects nu <= 0 (nu = inf is its
    Gaussian limit), and the location-scatter and 1-D functionals raise
    ``NuOutOfRange`` unless 1 < nu < inf.
    """
    scfg = ScatterConfig(nu=args.nu, tol_grad=args.tol, max_iter=args.max_iter) if "tol" in args else None
    sample = ingest_csv(sys.stdin if args.input == "-" else args.input)

    if args.command == "estimate":
        est = solve_locscatter(sample, args.nu, scfg)
        if not est.converged:
            warnings.append(UNCONVERGED["locscatter"])
        payload = {
            "mu": est.mu,
            "Sigma": est.Sigma.mat,
            "nu": est.nu,
            "gamma_check": est.gamma_check,
            "weight_check": est.weight_check,
            "converged": est.converged,
            "iterations": est.scatter_diag.iterations,
            "newton_steps": est.scatter_diag.newton_steps,
            "grad_norm": est.scatter_diag.grad_norm,
        }
    elif args.command == "scatter":
        result = solve_scatter(sample, scfg)
        if not result.converged:
            warnings.append(UNCONVERGED["scatter"])
        payload = {
            "A": result.A.mat,
            "iterations": result.iterations,
            "newton_steps": result.newton_steps,
            "objective": result.objective,
            "grad_norm": result.grad_norm,
            "fp_residual": result.fp_residual,
            "converged": result.converged,
            "stop_reason": result.stop_reason,
        }
    elif args.command == "check-domain":
        check = check_scatter_domain if args.mode == "scatter" else check_locscat_domain
        payload = {**asdict(check(sample, args.nu + sample.d)), "target": args.mode}
    elif args.command == "asymptotics":
        # the covariance is taken at a fit made with the command's solver settings
        scatter = args.mode == "scatter"
        fit = solve_scatter(sample, scfg) if scatter else solve_locscatter(sample, args.nu, scfg)
        if not fit.converged:
            warnings.append(UNCONVERGED[args.mode])
        cov = (asymptotic_cov_scatter if scatter else asymptotic_cov_locscatter)(sample, args.nu, fit=fit)
        payload = asdict(cov)
    elif args.command == "oned":
        payload = asdict(solve_oned(sample, args.nu))
    elif args.command == "simulate":
        sampler = discrete_sampler(sample, None, args.seed)
        report = run_clt_experiment(
            sampler, args.nu, n=args.n, reps=args.reps, mode=args.mode, cfg=scfg
        )
        payload = asdict(report)
        warnings.extend(payload.pop("warnings"))
    else:
        raise ValueError(f"unknown command {args.command!r}")
    return payload


def _emit(envelope: dict, args: argparse.Namespace):
    text = json.dumps(envelope, indent=2) + "\n"
    if args.output and args.output != "-":
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


class _Parser(argparse.ArgumentParser):
    # usage problems must exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tscatter", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, *, fits=True):
        # only commands that run the scatter solver take its settings
        p.add_argument("input", help="CSV path, or '-' for stdin")
        p.add_argument("--nu", type=float, required=True, help="tail parameter")
        if fits:
            p.add_argument("--tol", type=float, default=1e-10,
                           help="tolerance on the whitened gradient norm, which does not "
                                "depend on the units of the data")
            p.add_argument("--max-iter", type=int, default=500)
        p.add_argument("--output", default=None, help="write the envelope here instead of stdout")

    add_common(sub.add_parser("estimate", help="location-scatter estimate (nu > 1)"))
    add_common(sub.add_parser("scatter", help="pure scatter estimate"))

    p = sub.add_parser("check-domain", help="existence-domain report")
    add_common(p, fits=False)
    p.add_argument("--target", dest="mode", choices=["locscatter", "scatter"],
                   default="locscatter")

    p = sub.add_parser("asymptotics", help="asymptotic covariance of the estimate")
    add_common(p)
    p.add_argument("--mode", choices=["locscatter", "scatter"], default="locscatter")

    add_common(sub.add_parser("oned", help="one-dimensional extended estimate (nu > 1)"), fits=False)

    p = sub.add_parser("simulate", help="Monte Carlo check against the asymptotic covariance")
    add_common(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=["scatter", "locscatter"], default="scatter")
    p.add_argument("--n", type=int, default=1000, help="per-replicate sample size")
    p.add_argument("--reps", type=int, default=200)

    return parser


# one parser per process: building it takes about a millisecond, a sizable
# share of a small job; build_parser itself returns a fresh one on each call
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    start = time.perf_counter()
    warnings: list[str] = []
    try:
        payload = dispatch(args, warnings)
        code = EXIT_OK
    except DomainViolation as exc:
        payload = {"error": "domain_violation", "report": asdict(exc.report)}
        warnings.append(str(exc))
        code = EXIT_DOMAIN
    except (NumericalBreakdown, NotSpdError, DegeneracyError) as exc:
        payload = {"error": "numerical_failure", "message": str(exc)}
        code = EXIT_NUMERICAL
    except (CsvParseError, OSError, ValueError) as exc:
        sys.stderr.write(f"tscatter: error: {exc}\n")
        return EXIT_USAGE

    envelope = {
        "version": SCHEMA_VERSION,
        "command": args.command,
        "timing_ms": (time.perf_counter() - start) * 1000.0,
        "payload": _round_trip(payload),
        "warnings": warnings,
    }
    try:
        _emit(envelope, args)
    except OSError as exc:
        sys.stderr.write(f"tscatter: error: {exc}\n")
        return EXIT_USAGE
    return code


if __name__ == "__main__":
    sys.exit(main())
