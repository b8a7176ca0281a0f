"""Command-line front end: ``truncdep <command>``.

Commands
--------
fit        maximum-likelihood fit of (theta, vartheta) from an x,t CSV
test       fit plus the independence test (and trend report under FGM)
simulate   draw a truncated sample to CSV
mc         Monte Carlo study over one or more scenarios
scan       determinant of the mean score Jacobian over a (theta, vartheta) grid
alpha      print the selection probability for given parameters
tau        print Kendall's tau for given parameters

Data interchange is CSV with header ``x,t`` (UTF-8, LF, ``.`` decimal);
structured results are JSON matching the schemas under docs/schemas/.
Exit codes: 0 success, 2 input or validation error, 3 non-convergence,
4 internal invariant violation.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import asdict, fields
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from .copula import CopulaFamily, ModelParams, StudyDesign, kendall_tau
from .errors import (
    ConvergenceError,
    DataError,
    DomainError,
    TruncdepError,
    _check_seed,
)
from .estimation import FitResult, fit
from .inference import (
    TestResult,
    TrendReport,
    trend_report_fgm,
    wald_boundary_test,
    wald_interior_test_fgm,
)
from .montecarlo import (
    MC_SE_KEYS, McSummary, ScenarioSpec, hessian_det_scan, power_curve, run_scenario,
)
from .sampling import TruncatedSample, _in_region, simulate_truncated
from .selection import alpha

__all__ = ["main"]

_FAMILY_BY_TAG = {
    "gb": CopulaFamily.GUMBEL_BARNETT,
    "fgm": CopulaFamily.FGM,
}
_TAG_BY_FAMILY = {v: k for k, v in _FAMILY_BY_TAG.items()}

_CSV_HEADER = ["x", "t"]
_PLAIN_BYTES = b"0123456789.eE+-,\n"

_SPEC_COLUMNS = [
    "family", "theta0", "vartheta0", "G", "s", "n", "replications", "seed", "level",
]
_SUMMARY_FIELDS = [f.name for f in fields(McSummary) if f.name != "mc_se"]
_MC_COLUMNS = _SPEC_COLUMNS + _SUMMARY_FIELDS + [f"se_{key}" for key in MC_SE_KEYS]
_POWER_COLUMNS = ["vartheta0", "rejection_rate", "mc_se"]


# ---------------------------------------------------------------------------
# Serialization helpers


def _jsonable(value: Any) -> Any:
    """Recursively convert to JSON-safe types; non-finite floats become null."""
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (float, np.floating)):
        v = float(value)
        return v if math.isfinite(v) else None
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, np.ndarray):
        return _jsonable(value.tolist())
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _write_text(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _dump_json(obj: dict, out: str | None) -> None:
    _write_text(json.dumps(_jsonable(obj), indent=2, allow_nan=False) + "\n", out)


def _csv_text(header: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    def cell(value: Any) -> str:
        if isinstance(value, (float, np.floating)):
            return repr(float(value))
        return str(value)

    return "".join(",".join(map(cell, row)) + "\n" for row in [header, *rows])


# ---------------------------------------------------------------------------
# Input parsing


def _family_from_tag(tag: str) -> CopulaFamily:
    try:
        return _FAMILY_BY_TAG[tag]
    except KeyError:
        raise DomainError(f"family must be one of {sorted(_FAMILY_BY_TAG)}, got {tag!r}")


def _plain_rows(body: bytes) -> np.ndarray | None:
    """The (M, 2) array of a CSV body in the writer's own form, else None.

    A non-empty body of LF lines over ``_PLAIN_BYTES``, with no blank line,
    splits into the same fields under ``np.loadtxt`` as under ``csv.reader``,
    and both convert a field with CPython's ``PyOS_string_to_double``, so
    they accept the same bodies with the same values.  Every other body,
    and every body ``loadtxt`` refuses, goes to the row loop, which writes
    the error message.
    """
    if (
        not body
        or body.startswith(b"\n")
        or b"\n\n" in body
        or body.translate(None, _PLAIN_BYTES)
    ):
        return None
    try:
        rows = np.loadtxt(
            io.BytesIO(body), delimiter=",", comments=None, ndmin=2, dtype=float
        )
    except ValueError:
        return None
    return rows if rows.shape[1] == 2 else None


def _parse_rows(path: str, data: bytes) -> tuple[np.ndarray, np.ndarray]:
    """Parse the whole file with ``csv.reader``, one ``float()`` per field.

    Line numbers in error messages are 1-based physical lines with the
    header on line 1.
    """
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"cannot read {path}: not UTF-8 ({exc})") from exc
    reader = csv.reader(io.StringIO(text, newline=""))
    xs: list[float] = []
    ts: list[float] = []
    try:
        header = next(reader, None)
        if header != _CSV_HEADER:
            raise DataError(f"{path}:1: header must be exactly 'x,t', got {header!r}")
        for lineno, row in enumerate(reader, start=2):
            if len(row) != 2:
                raise DataError(f"{path}:{lineno}: expected 2 fields, got {len(row)}")
            try:
                xs.append(float(row[0]))
                ts.append(float(row[1]))
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: non-numeric value ({exc})") from exc
    except csv.Error as exc:
        raise DataError(f"{path}:{reader.line_num}: {exc}") from exc
    return np.array(xs), np.array(ts)


def _read_sample(path: str, design: StudyDesign) -> TruncatedSample:
    """Parse an x,t CSV, validating every row against the observable region.

    A file in the form ``simulate`` writes is parsed by ``_plain_rows``;
    any other file, and every malformed one, by the row loop
    ``_parse_rows``.  All rows are parsed before any is checked against D,
    so a malformed row is reported ahead of an earlier out-of-region one.
    """
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    header, _, body = data.partition(b"\n")
    rows = _plain_rows(body) if header == b"x,t" else None
    x, t = _parse_rows(path, data) if rows is None else rows.T
    if not x.size:
        raise DataError(f"{path}: no observations after the header")
    outside = np.flatnonzero(~_in_region(x, t, design))
    if outside.size:
        i = int(outside[0])
        at, xi, ti = f"{path}:{i + 2}", float(x[i]), float(t[i])
        if not (math.isfinite(xi) and math.isfinite(ti)):
            raise DataError(f"{at}: non-finite value")
        if not 0.0 < ti < design.big_g:
            raise DataError(f"{at}: t={ti!r} outside (0, {design.big_g})")
        raise DataError(f"{at}: x={xi!r} outside [t, t+s] = [{ti!r}, {ti + design.s!r}]")
    return TruncatedSample.from_arrays(x, t, design)


def _load_scenarios(args: argparse.Namespace) -> list[ScenarioSpec]:
    if args.scenarios is not None:
        try:
            raw = json.loads(Path(args.scenarios).read_text(encoding="utf-8"))
        except OSError as exc:
            raise DataError(f"cannot read {args.scenarios}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise DataError(f"{args.scenarios}: invalid JSON ({exc})") from exc
        if isinstance(raw, dict):
            raw = [raw]
        if not isinstance(raw, list) or not raw:
            raise DataError(f"{args.scenarios}: expected a scenario object or array")
        return [_scenario_from_dict(entry, i) for i, entry in enumerate(raw)]
    missing = [
        flag
        for flag, value in [
            ("--family", args.family),
            ("--theta", args.theta),
            ("--vartheta", args.vartheta),
            ("--G", args.big_g),
            ("--s", args.s),
            ("--n", args.n),
            ("--seed", args.seed),
        ]
        if value is None
    ]
    if missing:
        raise DataError(
            "single-scenario mode needs " + ", ".join(missing) + " (or --scenarios)"
        )
    entry = {
        "design": {"big_g": args.big_g, "s": args.s},
        "params0": {
            "family": args.family, "theta": args.theta, "vartheta": args.vartheta
        },
        "n": args.n,
        "replications": args.replications,
        "seed": args.seed,
        "level": args.level,
    }
    return [_scenario_from_dict(entry, 0)]


def _scenario_int(entry: dict, key: str) -> int:
    """An integer field: an int, or a float with an integral value (JSON 1e4)."""
    value = entry[key]
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise DataError(f"{key}={value!r} must be an integer")
    return value


def _scenario_float(entry: dict, key: str) -> float:
    """A real-valued field: an int or a float, never a bool or a string."""
    value = entry[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise DataError(f"{key}={value!r} must be a number")
    return float(value)


def _scenario_from_dict(entry: Any, index: int) -> ScenarioSpec:
    """Build one scenario from its JSON form, as a scenario file holds it."""
    where = f"scenario {index}"
    if not isinstance(entry, dict):
        raise DataError(f"{where}: expected an object, got {type(entry).__name__}")
    try:
        design = entry["design"]
        params0 = entry["params0"]
        spec = ScenarioSpec(
            design=StudyDesign(
                big_g=_scenario_float(design, "big_g"), s=_scenario_float(design, "s")
            ),
            n=_scenario_int(entry, "n"),
            params0=ModelParams(
                _family_from_tag(params0["family"]),
                _scenario_float(params0, "theta"),
                _scenario_float(params0, "vartheta"),
            ),
            replications=_scenario_int(entry, "replications"),
            seed=_scenario_int(entry, "seed"),
            level=_scenario_float({"level": 0.05, **entry}, "level"),
        )
    except KeyError as exc:
        raise DataError(f"{where}: missing field {exc.args[0]!r}") from exc
    except (TypeError, ValueError, OverflowError) as exc:  # DomainError, DataError too
        raise DataError(f"{where}: {exc}") from exc
    return spec


# ---------------------------------------------------------------------------
# Result shaping


def _fit_payload(result: FitResult, sample: TruncatedSample) -> dict:
    params = result.params_hat
    notes = []
    if result.at_boundary:
        notes.append(
            "vartheta_hat is on the boundary: se_theta comes from the "
            "restricted information 1/I_11 and the vartheta row of cov_hat "
            "is a diagnostic, not a standard-error basis"
        )
    if not result.converged:
        notes.append("optimizer did not meet the convergence contract")
    return {
        "family": _TAG_BY_FAMILY[params.family],
        "design": {"G": sample.design.big_g, "s": sample.design.s},
        "m": sample.m,
        "theta_hat": params.theta,
        "vartheta_hat": params.vartheta,
        "n_hat": result.n_hat,
        "at_boundary": result.at_boundary,
        "log_lik": result.log_lik,
        "se_theta": result.se[0],
        "se_vartheta": result.se[1],
        "converged": result.converged,
        "iterations": result.iterations,
        "info_hat": result.info_hat,
        "cov_hat": result.cov_hat,
        "notes": notes,
    }


def _test_payload(test: TestResult, trend: TrendReport | None) -> dict:
    return {"test": asdict(test), "trend": None if trend is None else asdict(trend)}


def _summary_row(spec: ScenarioSpec, summary: McSummary) -> list:
    params, design = spec.params0, spec.design
    return [
        _TAG_BY_FAMILY[params.family], params.theta, params.vartheta,
        design.big_g, design.s, spec.n, spec.replications, spec.seed, spec.level,
        *(getattr(summary, name) for name in _SUMMARY_FIELDS),
        *(summary.mc_se[key] for key in MC_SE_KEYS),
    ]


# ---------------------------------------------------------------------------
# Commands


def _cmd_fit(args: argparse.Namespace) -> int:
    design = StudyDesign(big_g=args.big_g, s=args.s)
    sample = _read_sample(args.input, design)
    result = fit(sample, _family_from_tag(args.family))
    _dump_json(_fit_payload(result, sample), args.out)
    return 0 if result.converged else 3


def _cmd_test(args: argparse.Namespace) -> int:
    design = StudyDesign(big_g=args.big_g, s=args.s)
    family = _family_from_tag(args.family)
    sample = _read_sample(args.input, design)
    result = fit(sample, family)
    if family is CopulaFamily.GUMBEL_BARNETT:
        test = wald_boundary_test(result, sample, args.level)
        trend = None
    else:
        test = wald_interior_test_fgm(result, sample, args.level)
        trend = trend_report_fgm(result, design)
    payload = {"fit": _fit_payload(result, sample)}
    payload.update(_test_payload(test, trend))
    _dump_json(payload, args.out)
    return 0 if result.converged else 3


def _cmd_simulate(args: argparse.Namespace) -> int:
    params = ModelParams(_family_from_tag(args.family), args.theta, args.vartheta)
    design = StudyDesign(big_g=args.big_g, s=args.s)
    _check_seed(args.seed)
    rng = np.random.default_rng(args.seed)
    sample = simulate_truncated(params, design, args.n, rng)
    rows = zip(sample.x_arr.tolist(), sample.t_arr.tolist())
    _write_text("x,t\n" + "".join(f"{x!r},{t!r}\n" for x, t in rows), args.out)
    print(f"M={sample.m} M/n={sample.m / args.n!r}", file=sys.stderr)
    return 0


def _cmd_mc(args: argparse.Namespace) -> int:
    scenarios = _load_scenarios(args)
    grid = None
    if args.power_grid is not None:
        if len(scenarios) != 1:
            raise DomainError("--power-grid needs exactly one base scenario")
        try:
            grid = [float(v) for v in args.power_grid.split(",")]
        except ValueError as exc:
            raise DomainError(f"--power-grid: {exc}") from exc
    rows = [
        _summary_row(spec, run_scenario(spec, threads=args.threads))
        for spec in scenarios
    ]
    curve = (
        power_curve(scenarios[0], grid, threads=args.threads)
        if grid is not None
        else None
    )
    if args.format == "json":
        payload: dict[str, Any] = {
            "scenarios": [dict(zip(_MC_COLUMNS, row)) for row in rows]
        }
        if curve is not None:
            payload["power_curve"] = [
                dict(zip(_POWER_COLUMNS, point)) for point in curve
            ]
        _dump_json(payload, args.out)
        return 0
    table = _csv_text(_MC_COLUMNS, rows)
    if curve is None:
        _write_text(table, args.out)
        return 0
    power = _csv_text(_POWER_COLUMNS, curve)
    if args.out is None:
        _write_text(table + "\n" + power, None)
        return 0
    _write_text(table, args.out)
    curve_path = Path(args.out).with_suffix(".power.csv")
    _write_text(power, str(curve_path))
    print(f"power curve written to {curve_path}", file=sys.stderr)
    return 0


def _cmd_scan(args: argparse.Namespace) -> int:
    design = StudyDesign(big_g=args.big_g, s=args.s)
    family = _family_from_tag(args.family)
    dets = hessian_det_scan(
        args.theta_grid, args.vartheta_grid, design, args.n_mc, args.seed, family=family
    )
    grid = [(th0, vt0) for th0 in args.theta_grid for vt0 in args.vartheta_grid]
    rows = [(*point, det) for point, det in zip(grid, dets.ravel())]
    _write_text(_csv_text(["theta0", "vartheta0", "det"], rows), args.out)
    th0, vt0, det = rows[int(np.argmin(dets))]
    print(
        f"minimum det {det:.6f} at theta0={th0} vartheta0={vt0} (n_mc={args.n_mc}; "
        "the trough is flat, so the argmin moves between runs at modest n_mc)",
        file=sys.stderr,
    )
    return 0


def _cmd_alpha(args: argparse.Namespace) -> int:
    params = ModelParams(_family_from_tag(args.family), args.theta, args.vartheta)
    design = StudyDesign(big_g=args.big_g, s=args.s)
    print(f"{alpha(params, design):.10g}")
    return 0


def _cmd_tau(args: argparse.Namespace) -> int:
    print(f"{kendall_tau(_family_from_tag(args.family), args.vartheta):.10g}")
    return 0


# ---------------------------------------------------------------------------
# Parser


def _add_design_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--G", dest="big_g", type=float, required=True,
                     help="study window length G (years)")
    sub.add_argument("--s", type=float, required=True,
                     help="follow-up length s (years)")


def _add_sample_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("input", help="CSV file with header x,t")
    sub.add_argument("--family", choices=sorted(_FAMILY_BY_TAG), required=True)
    _add_design_flags(sub)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="truncdep",
        description="Dependent double truncation: fitting, testing, simulation.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    p_fit = commands.add_parser("fit", help="fit (theta, vartheta) from an x,t CSV")
    _add_sample_flags(p_fit)
    p_fit.add_argument("--out", help="write JSON here instead of stdout")
    p_fit.set_defaults(func=_cmd_fit)

    p_test = commands.add_parser(
        "test", help="fit plus the independence test for the chosen family"
    )
    _add_sample_flags(p_test)
    p_test.add_argument("--level", type=float, default=0.05,
                        help="test level (default 0.05)")
    p_test.add_argument("--out", help="write JSON here instead of stdout")
    p_test.set_defaults(func=_cmd_test)

    p_sim = commands.add_parser("simulate", help="draw a truncated sample to CSV")
    p_sim.add_argument("--family", choices=sorted(_FAMILY_BY_TAG), required=True)
    p_sim.add_argument("--theta", type=float, required=True)
    p_sim.add_argument("--vartheta", type=float, required=True)
    _add_design_flags(p_sim)
    p_sim.add_argument("--n", type=int, required=True, help="latent sample size")
    p_sim.add_argument("--seed", type=int, required=True)
    p_sim.add_argument("--out", help="write CSV here instead of stdout")
    p_sim.set_defaults(func=_cmd_simulate)

    p_mc = commands.add_parser("mc", help="Monte Carlo study over scenarios")
    p_mc.add_argument("--scenarios",
                      help="JSON file with a scenario object or array of them")
    p_mc.add_argument("--family", choices=sorted(_FAMILY_BY_TAG))
    p_mc.add_argument("--theta", type=float)
    p_mc.add_argument("--vartheta", type=float)
    p_mc.add_argument("--G", dest="big_g", type=float)
    p_mc.add_argument("--s", type=float)
    p_mc.add_argument("--n", type=int)
    p_mc.add_argument("--replications", type=int, default=200)
    p_mc.add_argument("--seed", type=int)
    p_mc.add_argument("--level", type=float, default=0.05)
    p_mc.add_argument("--threads", type=int, default=None,
                      help="worker processes (default: one per core)")
    p_mc.add_argument("--power-grid",
                      help="comma list of vartheta0 values for a power sweep")
    p_mc.add_argument("--format", choices=["csv", "json"], default="csv")
    p_mc.add_argument("--out", help="write the summary here instead of stdout")
    p_mc.set_defaults(func=_cmd_mc)

    p_scan = commands.add_parser("scan", help="score-Jacobian determinant over a grid")
    p_scan.add_argument("--family", choices=sorted(_FAMILY_BY_TAG), default="gb")
    p_scan.add_argument("--theta-grid", nargs="+", type=float,
                        default=[0.05, 0.08, 0.1, 0.15, 0.2])
    p_scan.add_argument("--vartheta-grid", nargs="+", type=float,
                        default=[0.0, 0.25, 0.5, 0.75, 0.999])
    _add_design_flags(p_scan)
    p_scan.add_argument("--n-mc", type=int, default=200_000)
    p_scan.add_argument("--seed", type=int, default=90)
    p_scan.add_argument("--out", help="write CSV here instead of stdout")
    p_scan.set_defaults(func=_cmd_scan)

    p_alpha = commands.add_parser("alpha", help="print the selection probability")
    p_alpha.add_argument("family", choices=sorted(_FAMILY_BY_TAG))
    p_alpha.add_argument("theta", type=float)
    p_alpha.add_argument("vartheta", type=float)
    _add_design_flags(p_alpha)
    p_alpha.set_defaults(func=_cmd_alpha)

    p_tau = commands.add_parser("tau", help="print Kendall's tau")
    p_tau.add_argument("family", choices=sorted(_FAMILY_BY_TAG))
    p_tau.add_argument("vartheta", type=float)
    p_tau.set_defaults(func=_cmd_tau)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (DomainError, DataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except TruncdepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
