"""The benchmark's tracer rebinds spmlab functions by name (perfbench/tracing.py).

These checks read its binding table without changing it, so a refactor that
renames or stops calling a traced function fails here, not only under a
traced benchmark run.
"""
import importlib
import importlib.util
from pathlib import Path

import spmlab.harness as harness
import spmlab.stepper as stepper
from spmlab import config_from_dict, run_ensemble

from test_harness import base_raw

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_bindings():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.BINDINGS


def test_bindings_resolve_to_callables():
    for module_name, attribute, _ in load_bindings():
        target = getattr(importlib.import_module(module_name), attribute, None)
        assert callable(target), f"{module_name}.{attribute} is not a callable"


def test_run_path_gets_seed_by_keyword(monkeypatch):
    # the tracer reads the path index from kwargs["seed"]
    calls = []
    original = harness.run_path

    def recording(*args, **kwargs):
        calls.append(kwargs)
        return original(*args, **kwargs)

    monkeypatch.setattr(harness, "run_path", recording)
    cfg = config_from_dict(base_raw(n_paths=2, gamma=2.0))
    run_ensemble(cfg, workers=1)
    assert [kw.get("seed") for kw in calls] == [(17, 0), (17, 1)]


def test_one_hm1_solve_at_start_and_per_live_step(monkeypatch):
    """The benchmark reads stepper.live_steps as its operators.hm1_solve
    calls minus its paths, so run_path must call
    spmlab.stepper.poisson_solve_array once at t = 0 and once per live step:
    a solve made through another binding would read as no step at all."""
    calls = []
    original = stepper.poisson_solve_array

    def counting(*args):
        calls.append(None)
        return original(*args)

    monkeypatch.setattr(stepper, "poisson_solve_array", counting)
    # the first path dies near t = 0.13, the second is alive at t_final
    for t_final in (0.4, 0.1):
        cfg = config_from_dict(base_raw(
            solver=dict(dt=2e-3, t_final=t_final, record_every=10), checkpoints=[t_final],
        ))
        noise, x0, _ = harness._build_context(cfg)
        calls.clear()
        traj = stepper.run_path(x0, cfg.solver, cfg.model, noise, seed=(17, 0))
        end = t_final if traj.tau_hat is None else traj.tau_hat
        assert (traj.tau_hat is None) == (t_final == 0.1)
        assert len(calls) == 1 + round(end / cfg.solver.dt)
