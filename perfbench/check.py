"""Output check: every ensemble's results against invariants and a stored reference.

An ensemble's outputs are its per-path extinction times, its empirical CDF,
the bound comparison's per-checkpoint pass flags and its failure and
positivity counts. The reference is the benchmark's own output at
REFERENCE_SEED, written with `run.py --write-reference`.

Every run checks the invariants: no positivity violation and no failed path.
At the reference seed it also measures `tau_shift_steps`, the largest
|tau_hat - reference tau_hat| / dt over all paths, where a path that flips
between extinct and not extinct counts as the whole run (n_steps). A shift
of at most one step is allowed (arithmetic that changes a path's last-step
rounding); the pass flags must match and the CDF may move only by the share
of paths whose tau moved.
"""
from __future__ import annotations

import json
from pathlib import Path
from typing import Optional

REFERENCE_SEED = 17
MAX_TAU_SHIFT_STEPS = 1


def ensemble_outputs(summary, comparison, dt: float, t_final: float) -> dict:
    return {
        "dt": dt,
        "n_steps": int(round(t_final / dt)),
        "tau_hats": list(summary.tau_hats),
        "empirical_cdf": list(summary.empirical_cdf),
        "passed": [row.passed for row in comparison.rows],
        "n_failed": summary.n_failed,
        "positivity_violations": summary.positivity_violations,
    }


def tau_shift_steps(outputs: list[dict], reference: list[dict]) -> float:
    shift = 0.0
    for out, ref in zip(outputs, reference, strict=True):
        for tau, tau_ref in zip(out["tau_hats"], ref["tau_hats"], strict=True):
            if tau is None and tau_ref is None:
                continue
            if (tau is None) != (tau_ref is None):
                shift = max(shift, float(out["n_steps"]))
            else:
                shift = max(shift, abs(tau - tau_ref) / out["dt"])
    return shift


def check(outputs: list[dict], reference: Optional[list[dict]]) -> tuple[list[str], Optional[float]]:
    """Return (problems, tau_shift_steps); tau_shift_steps is None without a reference."""
    problems = []
    for i, out in enumerate(outputs):
        if out["positivity_violations"]:
            problems.append(f"config {i}: {out['positivity_violations']} positivity violations")
        if out["n_failed"]:
            problems.append(f"config {i}: {out['n_failed']} failed paths")
    if reference is None:
        return problems, None
    if len(outputs) != len(reference) or any(
        len(o["tau_hats"]) != len(r["tau_hats"]) for o, r in zip(outputs, reference)
    ):
        return problems + ["outputs and reference differ in shape"], None
    shift = tau_shift_steps(outputs, reference)
    if shift > MAX_TAU_SHIFT_STEPS:
        problems.append(f"tau_hat moved by {shift:g} steps (at most {MAX_TAU_SHIFT_STEPS})")
    for i, (out, ref) in enumerate(zip(outputs, reference)):
        if out["passed"] != ref["passed"]:
            problems.append(f"config {i}: bound-comparison pass flags differ from the reference")
        moved = sum(
            (a is None) != (b is None) or (a is not None and a != b)
            for a, b in zip(out["tau_hats"], ref["tau_hats"])
        )
        slack = moved / len(out["tau_hats"]) + 1e-12
        if any(abs(a - b) > slack for a, b in zip(out["empirical_cdf"], ref["empirical_cdf"])):
            problems.append(f"config {i}: empirical CDF moved more than its moved paths allow")
    return problems, shift


def load_reference(path: Path) -> Optional[list[dict]]:
    if not path.is_file():
        return None
    return json.loads(path.read_text())["ensembles"]


def write_reference(path: Path, workload: str, outputs: list[dict]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {"workload": workload, "seed": REFERENCE_SEED, "ensembles": outputs}
    path.write_text(json.dumps(doc, indent=1) + "\n")
