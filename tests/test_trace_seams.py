"""The benchmark's tracer rebinds spmlab functions by name (perfbench/tracing.py).

These checks read its binding table without changing it, so a refactor that
renames or stops calling a traced function fails here, not only under a
traced benchmark run.
"""
import importlib
import importlib.util
from pathlib import Path

import spmlab.harness as harness
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
