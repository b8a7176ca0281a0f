"""The benchmark's tracer still finds every module boundary it times.

``bench/tracer.py`` wraps names that the package's modules look up at
call time.  A renamed or inlined function would make a traced benchmark
run report a failed check, so this test catches it in the ordinary suite.
The tracer module is loaded from its file and not changed.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from truncdep import (
    CopulaFamily,
    ModelParams,
    StudyDesign,
    TruncatedSample,
    hessian_det_scan,
    profile_score,
    simulate_truncated,
)
from truncdep.estimation import fit, fit_restricted

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_hooks_exist_and_see_a_fit():
    params = ModelParams(CopulaFamily.GUMBEL_BARNETT, 0.08, 0.0)
    sample = simulate_truncated(
        params, StudyDesign(24.0, 3.0), 10_000, np.random.default_rng(101)
    )
    tracer = _load_tracer().Tracer()
    try:
        assert tracer.install() == []
        fit(sample, CopulaFamily.GUMBEL_BARNETT)
        fit_restricted(sample, CopulaFamily.GUMBEL_BARNETT)
    finally:
        tracer.uninstall()
    for name in (
        "likelihood.obs_terms",
        "selection.alpha.gb",
        "estimation.objective",
        "estimation.minimize",
        "estimation.face_solve",
    ):
        assert tracer.name.count(name) >= 1, name


@pytest.mark.parametrize(
    "call",
    [
        lambda: profile_score(
            ModelParams(CopulaFamily.GUMBEL_BARNETT, 0.08, 0.3),
            TruncatedSample.from_arrays([5.0], [4.0], StudyDesign(24.0, 3.0)),
        ),
        lambda: hessian_det_scan([0.08], [0.3], StudyDesign(24.0, 3.0), 2_000, seed=1),
    ],
    ids=["profile_score", "hessian_det_scan"],
)
def test_hooked_names_are_live_call_sites(call):
    # likelihood and montecarlo each look up the hooked _obs_terms and
    # _alpha_and_grad under their own names; a name kept there only as an
    # import would still install but record no span.
    tracer = _load_tracer().Tracer()
    try:
        assert tracer.install() == []
        call()
    finally:
        tracer.uninstall()
    for name in ("likelihood.obs_terms", "selection.alpha.gb"):
        assert tracer.name.count(name) >= 1, name
