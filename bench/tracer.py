"""In-memory spans around truncdep's module boundaries, and their per-layer sums.

``Tracer.install`` replaces the module-level names that each consumer
looks up at call time (``truncdep.estimation._alpha_and_grad``,
``truncdep.montecarlo.fit``, ``truncdep.cli._read_sample``, ...) with
wrappers that record a span: name, start, end, parent span and the
operation it belongs to.  Nothing in ``src/`` changes.  A name a later
version no longer has cannot be wrapped; ``install`` returns it, and the
run reports it as a failed check rather than a layer that takes no time.

A span's layer is the part of its name before the first dot.  Self time
is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from pathlib import Path


def _family_tag(family) -> str:
    return "fgm" if getattr(family, "value", "") == "fgm" else "gb"


def _alpha_grad_name(args, kwargs) -> str:
    return "selection.alpha." + _family_tag(args[0] if args else kwargs.get("family"))


def _alpha_name(args, kwargs) -> str:
    params = args[0] if args else kwargs.get("params")
    return "selection.alpha." + _family_tag(getattr(params, "family", None))


def _obs_size(args, kwargs) -> int:
    return len(args[4]) if len(args) > 4 else len(kwargs.get("x", ()))


def _first_len(args, kwargs) -> int:
    return len(args[0]) if args else len(kwargs.get("x", ()))


# (module, owner inside the module or "", attribute, span name, size).
# The span name is a string or a function of the call's arguments; size,
# when given, records the observations the call works on.
_HOOKS = [
    ("truncdep.sampling", "", "_draw_latent_arrays", "sampling.latent", None),
    ("truncdep.sampling", "", "_gb_inv_cond", "copula.inv_cond", None),
    ("truncdep.sampling", "", "_fgm_inv_cond", "copula.inv_cond", None),
    ("truncdep.sampling", "TruncatedSample", "from_arrays", "sampling.construct", _first_len),
    ("truncdep.montecarlo", "", "simulate_truncated", "sampling.simulate", None),
    ("truncdep.cli", "", "simulate_truncated", "sampling.simulate", None),
    ("truncdep.estimation", "", "_obs_terms", "likelihood.obs_terms", _obs_size),
    ("truncdep.likelihood", "", "_obs_terms", "likelihood.obs_terms", _obs_size),
    ("truncdep.montecarlo", "", "_obs_terms", "likelihood.obs_terms", _obs_size),
    ("truncdep.estimation", "", "_alpha_and_grad", _alpha_grad_name, None),
    ("truncdep.likelihood", "", "_alpha_and_grad", _alpha_grad_name, None),
    ("truncdep.montecarlo", "", "_alpha_and_grad", _alpha_grad_name, None),
    ("truncdep.estimation", "", "alpha", _alpha_name, None),
    ("truncdep.likelihood", "", "alpha", _alpha_name, None),
    ("truncdep.cli", "", "alpha", _alpha_name, None),
    ("truncdep._quad", "", "domain_grid", "quad.domain_grid", None),
    ("truncdep.estimation", "", "minimize", "estimation.minimize", None),
    ("truncdep.estimation", "", "_solve_face", "estimation.face_solve", None),
    ("truncdep.montecarlo", "", "fit", "estimation.fit", None),
    ("truncdep.cli", "", "fit", "estimation.fit", None),
    ("truncdep.inference", "", "fit_restricted", "estimation.fit_restricted", None),
    ("truncdep.montecarlo", "", "wald_boundary_test", "inference.wald", None),
    ("truncdep.montecarlo", "", "wald_interior_test_fgm", "inference.wald", None),
    ("truncdep.cli", "", "wald_boundary_test", "inference.wald", None),
    ("truncdep.cli", "", "wald_interior_test_fgm", "inference.wald", None),
    ("truncdep.montecarlo", "", "_replicate", "montecarlo.replicate", None),
    ("truncdep.cli", "", "_read_sample", "cli.read", None),
    ("truncdep.cli", "", "_dump_json", "cli.json", None),
]


class Tracer:
    """Spans kept in parallel lists; ``op`` is set by the caller per operation."""

    def __init__(self) -> None:
        self.name: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.span_op: list[int] = []
        self.size: list[int] = []
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def begin(self, name: str, size: int = 0) -> int:
        idx = len(self.name)
        self.name.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.span_op.append(self.op)
        self.size.append(size)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name, size=None):
        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            idx = self.begin(label, size(args, kwargs) if size else 0)
            try:
                return fn(*args, **kwargs)
            finally:
                self.finish(idx)

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> list[str]:
        """Wrap every hook that exists; return the ones that do not."""
        missing = []
        for module_name, owner_name, attr, name, size in _HOOKS:
            owner = importlib.import_module(module_name)
            if owner_name:
                owner = getattr(owner, owner_name, None)
            if owner is None or attr not in vars(owner):
                missing.append(f"{module_name}.{owner_name + '.' if owner_name else ''}{attr}")
                continue
            self._patch(owner, attr, self.wrap(getattr(owner, attr), name, size))
        estimation = importlib.import_module("truncdep.estimation")
        factory = vars(estimation).get("_objective_factory")
        if factory is None:
            missing.append("truncdep.estimation._objective_factory")
        else:
            def traced_factory(*args, **kwargs):
                return self.wrap(factory(*args, **kwargs), "estimation.objective")

            self._patch(estimation, "_objective_factory", traced_factory)
        return missing

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        """One JSON object of parallel arrays; times in seconds from the first span."""
        t0 = self.start[0] if self.start else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "name": self.name,
            "start": [round(s - t0, 9) for s in self.start],
            "end": [round(e - t0, 9) for e in self.end],
            "parent": self.parent,
            "op": self.span_op,
            "size": self.size,
        }))


class SpanTable:
    """Durations, self times and per-name sums of a finished trace."""

    def __init__(self, tracer: Tracer) -> None:
        self.t = tracer
        n = len(tracer.name)
        self.dur = [tracer.end[i] - tracer.start[i] for i in range(n)]
        self.children: list[list[int]] = [[] for _ in range(n)]
        self.self_time = list(self.dur)
        for i, p in enumerate(tracer.parent):
            if p >= 0:
                self.children[p].append(i)
                self.self_time[p] -= self.dur[i]

    def _outermost(self, match, ops: range | None = None) -> list[int]:
        """Spans whose name ``match``es, with no matching ancestor, optionally in ``ops``."""
        t = self.t
        out = []
        for i, nm in enumerate(t.name):
            if not match(nm) or (ops is not None and t.span_op[i] not in ops):
                continue
            p = t.parent[i]
            while p >= 0 and not match(t.name[p]):
                p = t.parent[p]
            if p < 0:
                out.append(i)
        return out

    def indices(self, name: str, ops: range | None = None) -> list[int]:
        """Spans called ``name`` with no ancestor of that name."""
        return self._outermost(lambda nm: nm == name, ops)

    def layer_roots(self, layer: str) -> list[int]:
        """Spans of ``layer`` with no ancestor in that layer."""
        return self._outermost(lambda nm: nm.split(".", 1)[0] == layer)

    def total(self, name: str) -> float:
        return sum(self.dur[i] for i in self.indices(name))

    def count(self, name: str, ops: range | None = None) -> int:
        return sum(1 for i, nm in enumerate(self.t.name)
                   if nm == name and (ops is None or self.t.span_op[i] in ops))

    def sizes(self, name: str, ops: range | None = None) -> int:
        return sum(self.t.size[i] for i in self.indices(name, ops))

    def self_total(self, name: str) -> float:
        return sum(self.self_time[i] for i in self.indices(name))

    def time_in_layers(self, i: int, layers: set[str]) -> float:
        """Time below span i spent in the outermost spans of ``layers``."""
        total, todo = 0.0, list(self.children[i])
        while todo:
            c = todo.pop()
            if self.t.name[c].split(".", 1)[0] in layers:
                total += self.dur[c]
            else:
                todo.extend(self.children[c])
        return total

    def count_under(self, name: str, path: tuple[str, ...], ops: range) -> int:
        """Spans ``name`` in ``ops`` whose ancestors include every name of ``path``."""
        t = self.t
        total = 0
        for i in range(len(t.name)):
            if t.name[i] != name or t.span_op[i] not in ops:
                continue
            seen, p = set(), t.parent[i]
            while p >= 0:
                seen.add(t.name[p])
                p = t.parent[p]
            total += all(a in seen for a in path)
        return total


# Every per-layer metric with its unit: ``*_ms`` are milliseconds per
# operation, counts are per operation.
UNITS = {
    "sampling.latent_ms": "ms",
    "copula.inv_cond_ms": "ms",
    "sampling.construct_ms": "ms",
    "sampling.m_obs": "count",
    "likelihood.obs_terms_calls": "count",
    "likelihood.obs_terms_ms": "ms",
    "likelihood.obs_terms_ns_per_obs": "ns",
    "selection.gb.alpha_calls": "count",
    "selection.gb.alpha_ms": "ms",
    "selection.gb.alpha_us_per_call": "us",
    "selection.fgm.alpha_calls": "count",
    "selection.fgm.alpha_ms": "ms",
    "selection.fgm.alpha_us_per_call": "us",
    "estimation.objective_evals": "count",
    "estimation.minimize_calls": "count",
    "estimation.face_solves": "count",
    "estimation.fit_ms": "ms",
    "estimation.fit_restricted_ms": "ms",
    "estimation.optimizer_self_ms": "ms",
    "inference.wald_ms": "ms",
    "inference.restricted_refit_evals": "count",
    "montecarlo.rep_self_ms": "ms",
    "cli.read_ms": "ms",
    "cli.write_ms": "ms",
    "cli.json_ms": "ms",
    "quad.grid_build_ms": "ms",
    "bench.op_ms": "ms",
    "bench.trace_overhead_pct": "%",
}


def per_layer_metrics(table: SpanTable, n_ops: int, window: range) -> dict[str, float]:
    """Per-layer figures: times in ms per operation over every traced
    operation, counts per operation over the fixed ``window`` of operations."""
    ops_ms = 1e3 / max(n_ops, 1)
    k = max(len(window), 1)
    out: dict[str, float] = {}
    out["sampling.latent_ms"] = table.total("sampling.latent") * ops_ms
    out["copula.inv_cond_ms"] = table.total("copula.inv_cond") * ops_ms
    out["sampling.construct_ms"] = table.total("sampling.construct") * ops_ms
    out["sampling.m_obs"] = table.sizes("sampling.construct", window) / k
    obs_time = table.total("likelihood.obs_terms")
    obs_points = table.sizes("likelihood.obs_terms")
    out["likelihood.obs_terms_calls"] = table.count("likelihood.obs_terms", window) / k
    out["likelihood.obs_terms_ms"] = obs_time * ops_ms
    out["likelihood.obs_terms_ns_per_obs"] = obs_time * 1e9 / obs_points if obs_points else 0.0
    for fam in ("gb", "fgm"):
        name = f"selection.alpha.{fam}"
        calls_all = table.count(name)
        time_all = table.total(name)
        out[f"selection.{fam}.alpha_calls"] = table.count(name, window) / k
        out[f"selection.{fam}.alpha_ms"] = time_all * ops_ms
        out[f"selection.{fam}.alpha_us_per_call"] = time_all * 1e6 / calls_all if calls_all else 0.0
    out["estimation.objective_evals"] = table.count("estimation.objective", window) / k
    out["estimation.minimize_calls"] = table.count("estimation.minimize", window) / k
    out["estimation.face_solves"] = table.count("estimation.face_solve", window) / k
    out["estimation.fit_ms"] = table.total("estimation.fit") * ops_ms
    out["estimation.fit_restricted_ms"] = table.total("estimation.fit_restricted") * ops_ms
    roots = table.layer_roots("estimation")
    out["estimation.optimizer_self_ms"] = sum(
        table.dur[i] - table.time_in_layers(i, {"likelihood", "selection"}) for i in roots
    ) * ops_ms
    out["inference.wald_ms"] = table.total("inference.wald") * ops_ms
    out["inference.restricted_refit_evals"] = table.count_under(
        "estimation.objective", ("inference.wald", "estimation.fit_restricted"), window
    ) / k
    out["montecarlo.rep_self_ms"] = table.self_total("montecarlo.replicate") * ops_ms
    out["cli.read_ms"] = table.total("cli.read") * ops_ms
    out["cli.write_ms"] = table.self_total("cli.simulate") * ops_ms
    out["cli.json_ms"] = table.total("cli.json") * ops_ms
    grids = table.indices("quad.domain_grid")
    out["quad.grid_build_ms"] = table.dur[grids[0]] * 1e3 if grids else 0.0
    return out


def span_summary(table: SpanTable, n_ops: int) -> dict[str, dict[str, float]]:
    """Per span name: calls, total and self ms per operation."""
    acc: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
    for i, nm in enumerate(table.t.name):
        row = acc[nm]
        row[0] += 1
        row[1] += table.dur[i]
        row[2] += table.self_time[i]
    scale = 1e3 / max(n_ops, 1)
    return {
        nm: {"calls": c / max(n_ops, 1), "ms": d * scale, "self_ms": s * scale}
        for nm, (c, d, s) in sorted(acc.items())
    }
