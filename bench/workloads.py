"""The benchmark's workloads, each with its correctness checks.

A workload runs in rounds.  A round is the same fixed list of
operations every time: one Monte Carlo replication per scenario, or the
four CLI commands.  ``run_round`` returns one ``Op`` per operation with
its wall time; ``check`` runs after the measured loop and returns the
indices of failed operations with a message for each.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracle

G, S = 24.0, 3.0
LEVEL = 0.05
# Largest replication count a scenario may reach; iteration stops on time.
MAX_REPS = 10**7
# Width, in standard errors, of the statistical checks.  At this width a
# correct program fails one seed in about 1.7 million per check.
Z_CHECK = 5.0
# Relative step of the perturbations in the profile-likelihood check.
PERTURB = 1e-3


@dataclass
class Op:
    name: str
    seconds: float
    key: tuple  # every output of the operation apart from times
    record: object = None


def _derived_seed(seed: int, *key: int, dtype=np.uint64) -> int:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=key)
    return int(ss.generate_state(1, dtype)[0])


def _lp_is_max(family, theta_hat, vt_hat, vt_range, truth, x, t) -> list[str]:
    """l_p at the estimate is not below l_p at small feasible moves or at the truth.

    Tolerance 1e-10 |l_p| + 1e-6: the reference alpha is accurate to
    about 1e-12 relative, far inside it.
    """
    lp_hat = oracle.profile_loglik(family, theta_hat, vt_hat, G, S, x, t)
    tol = 1e-10 * abs(lp_hat) + 1e-6
    points = [
        (theta_hat * (1.0 + PERTURB), vt_hat),
        (theta_hat * (1.0 - PERTURB), vt_hat),
        (theta_hat, vt_hat + PERTURB),
        (theta_hat, vt_hat - PERTURB),
        truth,
    ]
    errors = []
    for th, vt in points:
        if not vt_range[0] <= vt <= vt_range[1]:
            continue
        lp = oracle.profile_loglik(family, th, vt, G, S, x, t)
        if lp > lp_hat + tol:
            errors.append(
                f"l_p({th!r}, {vt!r}) = {lp!r} exceeds l_p at the estimate "
                f"({theta_hat!r}, {vt_hat!r}) = {lp_hat!r} by more than {tol:.3g}"
            )
    return errors


def _boundary_score_ok(theta_hat, x, t) -> list[str]:
    """KKT sign on the face: the vartheta-score at (theta_hat, 0) is <= 0.

    The fit certifies stationarity to 10 * 1e-8 * M (its default
    gtol_scale), so that is the tolerance here.
    """
    score = oracle.gb_vartheta_score_at_zero(theta_hat, G, S, x, t)
    tol = 1e-7 * x.size
    if score > tol:
        return [f"boundary fit at theta={theta_hat!r}: vartheta-score {score!r} > {tol:.3g}"]
    return []


# ---------------------------------------------------------------------------
# Monte Carlo replications


class MonteCarlo:
    """``iter_replications(spec, threads=1)`` on each scenario, one record per round."""

    def __init__(self, truncdep, seed: int, workload_id: int, n: int,
                 varthetas: tuple[float, ...], window: int, check_every: int) -> None:
        self.td = truncdep
        self.window = window
        self.check_every = check_every
        self.check_phase = seed % check_every
        gb = truncdep.CopulaFamily.GUMBEL_BARNETT
        self.specs = [
            truncdep.ScenarioSpec(
                design=truncdep.StudyDesign(big_g=G, s=S),
                n=n,
                params0=truncdep.ModelParams(gb, 0.08, vt),
                replications=MAX_REPS,
                seed=_derived_seed(seed, workload_id, i),
                level=LEVEL,
            )
            for i, vt in enumerate(varthetas)
        ]
        self.iters = []

    def start(self) -> None:
        self.iters = [self.td.iter_replications(spec, threads=1) for spec in self.specs]

    def stop(self) -> None:
        for it in self.iters:
            it.close()
        self.iters = []

    def close(self) -> None:
        pass

    @staticmethod
    def _key(rec) -> tuple:
        return (rec.rep, rec.theta_hat.hex(), rec.vartheta_hat.hex(),
                rec.at_boundary, rec.reject, rec.m, rec.failed)

    def run_round(self, tracer=None, first_op: int = 0) -> list[Op]:
        ops = []
        for i, it in enumerate(self.iters):
            if tracer is not None:
                tracer.op = first_op + i
                idx = tracer.begin("bench.op")
            t0 = time.perf_counter()
            rec = next(it)
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.finish(idx)
            ops.append(Op(f"spec{i}", dt, (i,) + self._key(rec), rec))
        return ops

    def _check_record(self, spec, rec) -> list[str]:
        """Redraw the replication's sample apart from the program and test the fit."""
        p0 = spec.params0
        rng = np.random.default_rng(np.random.SeedSequence(entropy=spec.seed, spawn_key=(rec.rep,)))
        uv = oracle.uniform_pairs(rng, spec.n)
        x, t = oracle.truncate(*oracle.latent(oracle.GB, p0.theta, p0.vartheta, G, uv), G, S)
        if x.size != rec.m:
            return [f"rep {rec.rep}: M = {rec.m}, reference sample has {x.size}"]
        errors = _lp_is_max(oracle.GB, rec.theta_hat, rec.vartheta_hat, (0.0, 1.0 - 1e-6),
                            (p0.theta, p0.vartheta), x, t)
        if rec.at_boundary:
            errors += _boundary_score_ok(rec.theta_hat, x, t)
        return [f"rep {rec.rep}: {e}" for e in errors]

    def check(self, rounds: list[list[Op]]) -> tuple[set[int], list[str]]:
        failed: set[int] = set()
        msgs: list[str] = []
        per_spec: list[list] = [[] for _ in self.specs]
        op = 0
        for r, ops in enumerate(rounds):
            for i, o in enumerate(ops):
                rec, spec = o.record, self.specs[i]
                errors = []
                if rec.failed:
                    errors.append(f"spec {i} rep {rec.rep}: replication failed")
                else:
                    per_spec[i].append(rec)
                    if rec.rep != r:
                        errors.append(f"spec {i}: record {rec.rep} in round {r}")
                    if rec.at_boundary != (rec.vartheta_hat == 0.0):
                        errors.append(f"spec {i} rep {rec.rep}: at_boundary disagrees with vartheta_hat")
                    if rec.at_boundary and rec.reject:
                        errors.append(f"spec {i} rep {rec.rep}: boundary fit rejected (p must be 0.5)")
                    if r % self.check_every == self.check_phase:
                        errors += [f"spec {i} {e}" for e in self._check_record(spec, rec)]
                if errors:
                    failed.add(op)
                    msgs += errors
                op += 1
        for i, spec in enumerate(self.specs):
            if not per_spec[i]:
                continue
            summary = self.td.summarize(per_spec[i], spec.params0)
            r_eff = len(per_spec[i])
            bnd = sum(rec.at_boundary for rec in per_spec[i]) / r_eff
            rej = sum(rec.reject for rec in per_spec[i]) / r_eff
            if summary.boundary_fraction != bnd or summary.rejection_rate != rej:
                msgs.append(f"spec {i}: summarize disagrees with the records")
                failed.add(i)
            if spec.params0.vartheta == 0.0:
                # Self & Liang: half the null fits sit on the boundary.
                half_width = Z_CHECK * math.sqrt(0.25 / r_eff)
                if abs(bnd - 0.5) > half_width:
                    msgs.append(f"spec {i}: boundary fraction {bnd} outside 0.5 +- {half_width:.3f} (R={r_eff})")
                    failed.add(i)
                limit = LEVEL + Z_CHECK * math.sqrt(LEVEL * (1.0 - LEVEL) / r_eff)
                if rej > limit:
                    msgs.append(f"spec {i}: null rejection rate {rej} > {limit:.3f} (R={r_eff})")
                    failed.add(i)
        return failed, msgs

    def describe(self, rounds: list[list[Op]]) -> dict:
        out = {}
        for i, spec in enumerate(self.specs):
            recs = [ops[i].record for ops in rounds if not ops[i].record.failed]
            if recs:
                out[f"spec{i}"] = {
                    "vartheta0": spec.params0.vartheta,
                    "R": len(recs),
                    "mean_m": sum(r.m for r in recs) / len(recs),
                    "boundary_fraction": sum(r.at_boundary for r in recs) / len(recs),
                    "rejection_rate": sum(r.reject for r in recs) / len(recs),
                }
        return out


# ---------------------------------------------------------------------------
# CLI application


class CliApplication:
    """``truncdep.cli.main`` in-process: simulate to CSV, then fit and two tests."""

    THETA, VARTHETA, N = 0.0817, 0.10, 1_000_000

    def __init__(self, seed: int, workdir: Path) -> None:
        import truncdep.cli as cli

        self.main = cli.main
        self.window = 1
        self.sim_seed = _derived_seed(seed, 3, dtype=np.uint32)
        workdir.mkdir(parents=True, exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix="cli_", dir=workdir))
        d = self.dir
        design = ["--G", repr(G), "--s", repr(S)]
        self.commands = [
            ("simulate", d / "sample.csv",
             ["simulate", "--family", "fgm", "--theta", repr(self.THETA), "--vartheta",
              repr(self.VARTHETA), *design, "--n", str(self.N), "--seed", str(self.sim_seed),
              "--out", str(d / "sample.csv")]),
            ("fit", d / "fit.json",
             ["fit", str(d / "sample.csv"), "--family", "fgm", *design, "--out", str(d / "fit.json")]),
            ("test_fgm", d / "test_fgm.json",
             ["test", str(d / "sample.csv"), "--family", "fgm", *design, "--out", str(d / "test_fgm.json")]),
            ("test_gb", d / "test_gb.json",
             ["test", str(d / "sample.csv"), "--family", "gb", *design, "--out", str(d / "test_gb.json")]),
        ]

    def start(self) -> None:
        pass

    def stop(self) -> None:
        pass

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)

    def run_round(self, tracer=None, first_op: int = 0) -> list[Op]:
        ops = []
        for i, (name, out, argv) in enumerate(self.commands):
            # Each round's hash and the final checks read files this round wrote.
            out.unlink(missing_ok=True)
            if tracer is not None:
                tracer.op = first_op + i
                idx = tracer.begin("cli." + name)
            stderr = io.StringIO()
            t0 = time.perf_counter()
            with contextlib.redirect_stderr(stderr):
                code = self.main(argv)
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.finish(idx)
            body = out.read_bytes() if out.exists() else b""
            ops.append(Op(name, dt, (name, code, hashlib.sha256(body).hexdigest())))
        return ops

    def _check_outputs(self) -> dict[str, list[str]]:
        """Checks of the last round's files, by command."""
        import jsonschema

        schemas = Path(__file__).resolve().parent.parent / "docs" / "schemas"
        errors: dict[str, list[str]] = {name: [] for name, _, _ in self.commands}
        d = self.dir

        # simulate: the documented stream through the FGM quadratic inverse.
        csv_path = d / "sample.csv"
        try:
            with open(csv_path, encoding="utf-8") as handle:
                header = handle.readline()
            data = np.loadtxt(csv_path, delimiter=",", skiprows=1, ndmin=2)
        except (OSError, ValueError) as exc:
            errors["simulate"].append(f"cannot read the CSV: {exc}")
            return errors
        x_csv, t_csv = data[:, 0], data[:, 1]
        uv = oracle.uniform_pairs(np.random.default_rng(self.sim_seed), self.N)
        x_ref, t_ref = oracle.truncate(
            *oracle.latent(oracle.FGM, self.THETA, self.VARTHETA, G, uv), G, S)
        if header != "x,t\n":
            errors["simulate"].append(f"CSV header {header!r}")
        if x_csv.size != x_ref.size:
            errors["simulate"].append(f"CSV has {x_csv.size} rows, reference {x_ref.size}")
        else:
            worst = max(float(np.max(np.abs(x_csv - x_ref) / x_ref)),
                        float(np.max(np.abs(t_csv - t_ref) / t_ref)))
            if worst > 1e-12:
                errors["simulate"].append(f"CSV rows differ from the reference by {worst:.3g} relative")

        payloads = {}
        for name, schema in (("fit", "fit_result"), ("test_fgm", "test_result"),
                             ("test_gb", "test_result")):
            try:
                payloads[name] = json.loads((d / f"{name}.json").read_text(encoding="utf-8"))
                jsonschema.validate(payloads[name],
                                    json.loads((schemas / f"{schema}.schema.json").read_text()))
            except (OSError, ValueError, jsonschema.ValidationError) as exc:
                errors[name].append(f"{name}.json: {str(exc).splitlines()[0]}")
        if any(errors[name] for name in payloads) or len(payloads) < 3:
            return errors

        fit = payloads["fit"]
        th, vt = fit["theta_hat"], fit["vartheta_hat"]
        for label, est, truth, se in (("theta", th, self.THETA, fit["se_theta"]),
                                      ("vartheta", vt, self.VARTHETA, fit["se_vartheta"])):
            if not abs(est - truth) <= Z_CHECK * se:
                errors["fit"].append(f"{label}_hat {est!r} not within {Z_CHECK} SE ({se!r}) of {truth}")
        if fit["m"] != x_csv.size:
            errors["fit"].append(f"m = {fit['m']}, CSV has {x_csv.size} rows")
        errors["fit"] += _lp_is_max(oracle.FGM, th, vt, (-1.0 + 1e-6, 1.0 - 1e-6),
                                    (self.THETA, self.VARTHETA), x_csv, t_csv)

        fgm = payloads["test_fgm"]
        if (fgm["fit"]["theta_hat"], fgm["fit"]["vartheta_hat"]) != (th, vt):
            errors["test_fgm"].append("test fit differs from the fit command")
        trend = fgm["trend"]
        want = vt / (th * G) * 365.25
        if trend is None or not math.isclose(trend["annual_change_days"], want, rel_tol=1e-12):
            errors["test_fgm"].append(f"trend {trend!r}, expected annual_change_days {want!r}")

        gb = payloads["test_gb"]
        th_gb, vt_gb = gb["fit"]["theta_hat"], gb["fit"]["vartheta_hat"]
        test = gb["test"]
        if test["boundary"]:
            if test["p_value"] != 0.5 or test["statistic"] != 0 or vt_gb != 0.0:
                errors["test_gb"].append(f"boundary test reports {test!r} at vartheta_hat {vt_gb!r}")
            errors["test_gb"] += _boundary_score_ok(th_gb, x_csv, t_csv)
        errors["test_gb"] += _lp_is_max(oracle.GB, th_gb, vt_gb, (0.0, 1.0 - 1e-6),
                                        (self.THETA, 0.0), x_csv, t_csv)
        return errors

    def check(self, rounds: list[list[Op]]) -> tuple[set[int], list[str]]:
        failed: set[int] = set()
        msgs: list[str] = []
        errors = self._check_outputs()
        first = [o.key for o in rounds[0]]
        op = 0
        for r, ops in enumerate(rounds):
            for i, o in enumerate(ops):
                problems = list(errors[o.name])
                if o.key[1] != 0:
                    problems.append(f"exit code {o.key[1]}")
                if o.key != first[i]:
                    problems.append(f"round {r} output differs from round 0")
                if problems:
                    failed.add(op)
                    if r == 0 or problems != errors[o.name]:
                        msgs += [f"{o.name} (round {r}): {p}" for p in problems]
                op += 1
        return failed, msgs

    def describe(self, rounds: list[list[Op]]) -> dict:
        out = {}
        for i, (name, _, _) in enumerate(self.commands):
            times = [ops[i].seconds for ops in rounds]
            out[f"{name}_s_p50"] = float(np.median(times))
        return out


def make(name: str, truncdep, seed: int, workdir: Path):
    if name == "mc_gb_null_n1e4":
        return MonteCarlo(truncdep, seed, 1, 10_000, (0.0,), window=16, check_every=4)
    if name == "mc_gb_power_n4e5":
        return MonteCarlo(truncdep, seed, 2, 400_000, (0.0, 0.01), window=2, check_every=8)
    if name == "cli_application_fgm":
        return CliApplication(seed, workdir)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("mc_gb_null_n1e4", "mc_gb_power_n4e5", "cli_application_fgm")
