"""The benchmark's workloads: each is a list of experiment configs made from a seed.

A workload is a closed loop: one process submits its ensembles one after
another, each ensemble running over a pool of `workers` processes. The seed
becomes every config's `master_seed`, so it picks the noise paths and the
random starts of the gamma estimate; all sizes are fixed. BENCHMARK.json
records why each workload was chosen.

`toy=True` shrinks every config (coarse grid, large dt, two paths, two gamma
starts) so that the smoke test runs each workload in about a second.
"""
from __future__ import annotations

from dataclasses import dataclass

ACCEPTANCE_CHECKPOINTS = (0.035, 0.070, 0.105, 0.140, 0.175, 0.210, 0.245, 0.278)


@dataclass(frozen=True)
class Workload:
    name: str
    workers: int
    configs: tuple[dict, ...]  # raw config dicts, parsed inside the timed set-up

    @property
    def paths_per_round(self) -> int:
        return sum(c["n_paths"] for c in self.configs)


def _config(*, n, alpha, mu, dt, t_final, initial, n_paths, seed, checkpoints) -> dict:
    return {
        "grid": {"n_interior": n, "length": 1.0},
        "K": 2,
        "model": {"rho": 1.0, "alpha": alpha, "lambda": 1.0e-4},
        "noise": {"mu": list(mu)},
        "solver": {"dt": dt, "t_final": t_final, "record_every": 5},
        "initial": {"kind": initial, "mode": 1, "target_hm1_norm": 0.1},
        "n_paths": n_paths,
        "master_seed": seed,
        "checkpoints": list(checkpoints),
        "gamma_n_starts": 32,
    }


def _shrink(raw: dict) -> dict:
    small = dict(raw)
    small["grid"] = {"n_interior": 31, "length": 1.0}
    small["solver"] = dict(raw["solver"], dt=10 * raw["solver"]["dt"])
    small["n_paths"] = min(raw["n_paths"], 2)
    small["gamma_n_starts"] = 2
    return small


def _acceptance(seed: int) -> tuple[int, list[dict]]:
    return 2, [_config(
        n=255, alpha=0.5, mu=(0.05, 0.02), dt=1e-4, t_final=0.278, initial="eigenmode",
        n_paths=10, seed=seed, checkpoints=ACCEPTANCE_CHECKPOINTS,
    )]


def _fine_single(seed: int) -> tuple[int, list[dict]]:
    return 1, [_config(
        n=2047, alpha=0.2, mu=(0.05, 0.02), dt=1e-4, t_final=0.08, initial="bump",
        n_paths=1, seed=seed, checkpoints=(0.02, 0.04, 0.06, 0.08),
    )]


def _sweep(seed: int) -> tuple[int, list[dict]]:
    return 2, [
        _config(
            n=127, alpha=alpha, mu=mu, dt=1e-3, t_final=0.3, initial="eigenmode",
            n_paths=6, seed=seed, checkpoints=(0.1, 0.2, 0.3),
        )
        for alpha in (0.3, 0.5, 0.7)
        for mu in ((0.05, 0.02), (1.0, 0.3))
    ]


_BUILDERS = {"acceptance": _acceptance, "fine-single": _fine_single, "sweep": _sweep}
NAMES = tuple(_BUILDERS)


def make_workload(name: str, seed: int, toy: bool = False) -> Workload:
    workers, configs = _BUILDERS[name](seed)
    if toy:
        configs = [_shrink(c) for c in configs]
    return Workload(name=name, workers=workers, configs=tuple(configs))
