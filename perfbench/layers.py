"""Per-layer metrics derived from the spans of the traced rounds.

Counts come from the first traced round; every traced round runs the same
inputs, so the counts of later rounds must match (checked). Times are the
median over the traced rounds. Each metric names the end-to-end metric and
workload it should move.
"""
from __future__ import annotations

import statistics

import numpy as np

from tracing import C_CODE, C_ROUND, C_SIZE, C_T0, C_T1, CODE, self_times

# name -> (unit, better, what it should move)
PER_LAYER = {
    "operators.gamma_calls": ("count", "lower", "setup_s, result_s on sweep and fine-single"),
    "operators.gamma_s": ("s", "lower", "setup_s, result_s on sweep and fine-single"),
    "operators.basis_builds": ("count", "lower", "paths_per_s on sweep"),
    "operators.hm1_solve_calls": ("count", "lower", "paths_per_s on fine-single"),
    "operators.hm1_solve_s": ("s", "lower", "paths_per_s on fine-single"),
    "operators.laplacian_s": ("s", "lower", "paths_per_s on fine-single"),
    "nonlinearity.resolvent_calls": ("count", "lower", "paths_per_s on fine-single, acceptance"),
    "nonlinearity.resolvent_s": ("s", "lower", "paths_per_s on fine-single, acceptance"),
    "nonlinearity.resolvent_ns_per_node": ("ns", "lower", "paths_per_s on fine-single, acceptance"),
    "noise.increment_calls": ("count", "lower", "paths_per_s on acceptance"),
    "noise.increment_s": ("s", "lower", "paths_per_s on acceptance"),
    "stepper.path_s_p50": ("s", "lower", "paths_per_s on acceptance; none on fine-single"),
    "stepper.path_s_p90": ("s", "lower", "paths_per_s on acceptance; none on fine-single"),
    "stepper.self_s": ("s", "lower", "paths_per_s on acceptance; none on fine-single"),
    "stepper.live_steps": ("count", "lower", "paths_per_s on all three"),
    "stepper.newton_iters": ("count", "lower", "paths_per_s on all three"),
    "stepper.newton_solve_s": ("s", "lower", "paths_per_s on all three"),
    "stepper.drift_evals_per_step": ("evals/step", "lower", "paths_per_s on all three"),
    "stepper.picard_fallbacks": ("count", "lower", "fail_frac, paths_per_s (0 on all three)"),
    "stepper.picard_iters": ("count", "lower", "fail_frac, paths_per_s (0 on all three)"),
    "harness.ensemble_calls": ("count", "lower", "paths_per_s on sweep, acceptance"),
    "harness.pool_efficiency": ("fraction", "higher", "paths_per_s on sweep, acceptance"),
    "harness.overhead_s": ("s", "lower", "paths_per_s on sweep, acceptance; none on fine-single"),
    "trace.overhead_s": ("s", "lower", "nothing: traced minus untraced result_s"),
}

# counts that must repeat exactly between traced rounds and traced runs
COUNTS = tuple(name for name, (unit, _, _) in PER_LAYER.items() if unit == "count")


def _round_metrics(spans: np.ndarray, selfs: np.ndarray, workers: int) -> dict:
    code = spans[:, C_CODE].astype(int)
    dur = spans[:, C_T1] - spans[:, C_T0]

    def calls(name):
        return int(np.sum(code == CODE[name]))

    def busy(name):
        return float(dur[code == CODE[name]].sum())

    paths = code == CODE["stepper.run_path"]
    path_s = float(dur[paths].sum())
    ensemble_s = busy("harness.ensemble")
    resolvent = code == CODE["nonlinearity.resolvent"]
    live_steps = calls("operators.hm1_solve") - int(paths.sum())  # one H^-1 norm per live step
    return {
        "operators.gamma_calls": calls("operators.gamma"),
        "operators.gamma_s": busy("operators.gamma"),
        "operators.basis_builds": calls("operators.basis_build"),
        "operators.hm1_solve_calls": calls("operators.hm1_solve"),
        "operators.hm1_solve_s": busy("operators.hm1_solve"),
        "operators.laplacian_s": busy("operators.laplacian"),
        "nonlinearity.resolvent_calls": int(resolvent.sum()),
        "nonlinearity.resolvent_s": float(dur[resolvent].sum()),
        "nonlinearity.resolvent_ns_per_node": float(
            1e9 * dur[resolvent].sum() / max(spans[resolvent, C_SIZE].sum(), 1.0)
        ),
        "noise.increment_calls": calls("noise.increment"),
        "noise.increment_s": busy("noise.increment"),
        "stepper.self_s": float(selfs[paths].sum()),
        "stepper.live_steps": live_steps,
        "stepper.newton_iters": calls("stepper.newton_solve"),
        "stepper.newton_solve_s": busy("stepper.newton_solve"),
        "stepper.drift_evals_per_step": int(resolvent.sum()) / max(live_steps, 1),
        "stepper.picard_fallbacks": calls("stepper.picard_factor"),
        "stepper.picard_iters": calls("stepper.picard_solve"),
        "harness.ensemble_calls": calls("harness.ensemble"),
        "harness.pool_efficiency": path_s / (workers * ensemble_s) if ensemble_s else 0.0,
        "harness.overhead_s": ensemble_s - path_s / workers,
    }


def layer_metrics(spans: np.ndarray, workers: int, paths_per_round: int,
                  trace_overhead_s: float) -> tuple[dict, list[str]]:
    """Return ({name: value}, problems) over every traced round in `spans`."""
    selfs = self_times(spans)
    paths = spans[:, C_CODE] == CODE["stepper.run_path"]
    problems = []
    per_round = []
    for r in sorted(set(spans[:, C_ROUND].astype(int))):
        mask = spans[:, C_ROUND] == r
        if int(paths[mask].sum()) != paths_per_round:
            problems.append(f"round {r}: {int(paths[mask].sum())} of {paths_per_round} paths traced")
        per_round.append(_round_metrics(spans[mask], selfs[mask], workers))
    problems += [
        f"traced round {i}: {name} = {m[name]}, first traced round had {per_round[0][name]}"
        for i, m in enumerate(per_round[1:], 1)
        for name in COUNTS
        if m[name] != per_round[0][name]
    ]
    out = {
        name: per_round[0][name] if name in COUNTS else statistics.median(m[name] for m in per_round)
        for name in per_round[0]
    }
    path_s = spans[paths, C_T1] - spans[paths, C_T0]
    out["stepper.path_s_p50"] = float(np.quantile(path_s, 0.5))
    out["stepper.path_s_p90"] = float(np.quantile(path_s, 0.9))
    out["trace.overhead_s"] = trace_overhead_s
    return {name: out[name] for name in PER_LAYER}, problems
