"""What the benchmark in perfbench/ relies on: every function its tracer wraps
still exists, and the call shapes its workloads use still bind.  A change to
pwlab that breaks either fails here rather than in a benchmark run."""
import dataclasses
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from pwlab import commutator, factorize, nehari, pwspace, split, toeplitz, verify

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_module():
    # loaded by path: perfbench/ is a directory of scripts, not a package
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_resolves_and_restores_every_target():
    tracer_mod = _tracer_module()
    targets = [(importlib.import_module(mod), attr)
               for _, mod, attr in tracer_mod.TARGETS]
    before = [getattr(mod, attr) for mod, attr in targets]
    tracer = tracer_mod.Tracer()
    try:
        tracer.install()      # getattr on each target: a missing one raises
        wrapped = [getattr(mod, attr) for mod, attr in targets]
    finally:
        tracer.uninstall()
    assert all(w is not b for w, b in zip(wrapped, before))
    assert [getattr(mod, attr) for mod, attr in targets] == before


# (function, positional arguments, keyword arguments) as perfbench/workloads.py
# calls them; the values are placeholders, since binding checks only the shape
CALL_SHAPES = {
    "lambda_ops": (commutator.lambda_ops, ("frame",), {}),
    "build_frame": (commutator.build_frame, (1.0, 2.0, "grid"), {}),
    "nehari_solve": (nehari.nehari_solve, ("b", 1.0, 2.0), {}),
    "toeplitz_matrix": (toeplitz.toeplitz_matrix,
                        ("sym", 1.0, 2.0, 64.0, "grid"), {}),
    "project_band": (pwspace.project_band, ("f", 1.0, 2.0), {}),
    "project_band-no-p": (pwspace.project_band, ("f", 1.0), {}),
    "default_grid": (pwspace.default_grid, (1.0,), {}),
    "default_grid-window": (pwspace.default_grid, (1.0, 64.0), {}),
    "identity_matrix": (toeplitz.identity_matrix, (1.0, 2.0, 64.0), {}),
    # the spectral workload's split, sweep and identity ops
    "split_symbol": (split.split_symbol, ("sym", 1.0, "grid"), {}),
    "central_recover_sweep": (split.central_recover_sweep,
                              ("fn", 1.0, "xs", "grid"), {}),
    "identity_residuals": (toeplitz.identity_residuals, (1.0, 2.0, "grid"),
                           {"seed": 1, "trials": 10}),
    # the assembly workload's column route and cli_prepare's spoiled matrix
    "NyquistBasis": (toeplitz.NyquistBasis, (1.0, 64.0, "grid"), {}),
    "NyquistBasis.vector": (toeplitz.NyquistBasis.vector, ("basis", 3), {}),
    "NyquistBasis.coefficients": (toeplitz.NyquistBasis.coefficients,
                                  ("basis", "f"), {}),
    "OperatorMatrix": (toeplitz.OperatorMatrix,
                       ("entries", 1.0, 2.0, 64.0, "nodes"), {}),
    "run_all": (verify.run_all, (),
                {"a": 1.0, "p": 2.0, "seed": 1, "progress": None}),
    # the spectral workload's factorization op
    "weak_factorize": (factorize.weak_factorize, ("h", 1.0, 2.0), {}),
    "regroup_pairs": (factorize.regroup_pairs, ("F",), {}),
    "pair": (factorize.pair, ("T", "F"), {}),
}


@pytest.mark.parametrize("name", CALL_SHAPES)
def test_workload_call_shape_binds(name):
    fn, args, kwargs = CALL_SHAPES[name]
    bound = inspect.signature(fn).bind(*args, **kwargs)
    if name == "toeplitz_matrix":
        # the tracer keys each assembly by these parameter names
        assert {"sym", "a", "window", "grid"} <= set(bound.arguments)


def test_frame_carries_its_basis():
    # the lambda_ops workload reads its column route's basis as frame.basis
    fields = {f.name: f.type for f in dataclasses.fields(commutator.ConformalFrame)}
    assert fields.get("basis") in (toeplitz.NyquistBasis, "NyquistBasis")


def test_factorization_keeps_the_residual_fields():
    # the spectral workload's check reads these two from weak_factorize's result
    fields = {f.name for f in dataclasses.fields(factorize.Factorization)}
    assert {"residual_sup", "residual_l1"} <= fields
