"""Experiment orchestration: configs, seeded parallel ensembles, empirical
extinction CDFs with Wilson intervals, comparison against the theoretical
bound, and the ensemble test of the discounted-norm supermartingale. Both
read a path at a checkpoint through SolverConfig.step_time.

Per-path RNG streams are keyed by (master_seed, path_index) and aggregation
is order-independent, so a summary is bitwise reproducible for a fixed config
and seed regardless of the worker count.
"""
from __future__ import annotations

import json
from collections.abc import Mapping, Set
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields, is_dataclass
from fractions import Fraction
from functools import partial
from typing import Optional

import numpy as np
import yaml

from .nonlinearity import DiffusionLaw, ModelParams
from .noise import NoiseSpec, c_star
from .operators import (
    GridSpec,
    SpectralBasis,
    build_basis,
    estimate_gamma,
    norm_hm1,
    norm_l2_array,
    require_integer,
)
from .stepper import PathFailedError, SolverConfig, SolverCounts, Trajectory, run_path
from .theory import BoundInputs, discounted_norm, extinction_bound

# the two-sided 95% normal quantile: every Wilson interval, and so every
# bound comparison, is stated at the 95% level
_Z95 = 1.959963984540054
# compare_with_bound's allowance for the discretization bias (dt, h, the
# extinction threshold, gamma's estimate) that the continuum bound leaves out;
# a constant, so that every summary is judged by the same allowance
_SLACK = 0.02

# tolerance factor on negative node values when checking positivity
_POSITIVITY_TOL = 1e-8


class ConfigError(ValueError):
    """Malformed or inconsistent experiment configuration."""


@dataclass(frozen=True)
class InitialSpec:
    kind: str  # eigenmode | bump | custom
    mode: int = 1
    values: Optional[tuple[float, ...]] = None
    target_hm1_norm: Optional[float] = None

    def __post_init__(self):
        if self.kind not in ("eigenmode", "bump", "custom"):
            raise ConfigError(f"unknown initial condition kind {self.kind!r}")
        require_integer("mode", self.mode, ConfigError)
        # mode is read only for an eigenmode; 1 is its default, which
        # perfbench's configs also write for the other kinds
        if self.kind != "eigenmode" and self.mode != 1:
            raise ConfigError(f"{self.kind} initial condition takes no mode, got {self.mode}")
        if self.kind == "custom":
            if self.values is None:
                raise ConfigError("custom initial condition needs explicit values")
            if self.target_hm1_norm is not None:
                raise ConfigError("custom initial values are not rescaled; drop target_hm1_norm")
        elif self.values is not None:
            raise ConfigError(f"{self.kind} initial condition takes no values")
        elif not (self.target_hm1_norm and 0 < self.target_hm1_norm < np.inf):
            raise ConfigError(
                f"{self.kind} initial condition needs a positive, finite target_hm1_norm"
            )


@dataclass(frozen=True)
class ExperimentConfig:
    grid: GridSpec
    K: int
    model: ModelParams
    mu: tuple[float, ...]
    solver: SolverConfig
    initial: InitialSpec
    n_paths: int
    master_seed: int
    checkpoints: tuple[float, ...]
    gamma: Optional[float] = None
    convergence_lambdas: tuple[float, ...] = (1e-1, 5e-2, 2.5e-2, 1.25e-2)

    def __post_init__(self):
        for name in ("K", "n_paths", "master_seed"):
            require_integer(name, getattr(self, name), ConfigError)
        if not 1 <= self.K <= self.grid.n_interior:
            raise ConfigError(f"K={self.K} outside 1..{self.grid.n_interior}")
        if len(self.mu) != self.K:
            raise ConfigError(f"mu has {len(self.mu)} entries for K={self.K} modes")
        if not np.all(np.isfinite(self.mu)):
            raise ConfigError(f"mu must be finite, got {list(self.mu)}")
        if self.n_paths < 1:
            raise ConfigError("n_paths must be >= 1")
        if self.master_seed < 0:
            raise ConfigError(f"master_seed must be >= 0, got {self.master_seed}")
        cps = self.checkpoints
        if not cps:
            raise ConfigError("at least one checkpoint is required")
        if not np.all(np.isfinite(cps)):
            raise ConfigError("checkpoints must be finite")
        if any(b <= a for a, b in zip(cps, cps[1:])):
            raise ConfigError("checkpoints must be strictly increasing")
        # the relative tolerance of SolverConfig's divisibility check and step_time
        if cps[0] <= 0 or cps[-1] > self.solver.t_final * (1.0 + 1e-9):
            raise ConfigError("checkpoints must lie in (0, t_final]")
        if self.gamma is not None and not 0 < self.gamma < np.inf:
            raise ConfigError(f"gamma override must be positive and finite, got {self.gamma}")
        lams = self.convergence_lambdas
        if len(lams) < 2 or not all(0 < lam < np.inf for lam in lams):
            raise ConfigError(
                f"convergence_lambdas needs two or more positive, finite values, "
                f"got {list(lams)}"
            )
        n = self.grid.n_interior
        if not 1 <= self.initial.mode <= n:
            raise ConfigError(f"initial mode {self.initial.mode} outside 1..{n}")
        if self.initial.kind == "custom":
            values = self.initial.values
            if len(values) != self.grid.n_interior:
                raise ConfigError(
                    f"custom initial condition has {len(values)} values for "
                    f"{self.grid.n_interior} interior nodes"
                )
            if not np.all(np.isfinite(values)):
                raise ConfigError("custom initial values must be finite")


def _integer(value) -> int:
    """An int, integral float or string of either, read exactly; not a bool."""
    exact = Fraction(value)
    if isinstance(value, bool) or exact.denominator != 1:
        raise ValueError(f"{value!r} is not an integer")
    return int(exact)


def _real(value) -> float:
    """A float, or a number or string that float reads; not a bool."""
    if isinstance(value, bool):
        raise ValueError(f"{value!r} is not a real number")
    return float(value)


def _reals(values) -> tuple[float, ...]:
    """A list, tuple or array of reals; not a string, mapping or set, which
    would iterate as its characters, its keys or in hash order."""
    if isinstance(values, (str, bytes, Mapping, Set)):
        raise ValueError(f"{values!r} is not a sequence")
    return tuple(_real(v) for v in values)


def _optional_real(value) -> Optional[float]:
    return None if value is None else _real(value)


def _unit_length(value) -> float:
    """grid.length's one value, 1, which perfbench's workloads write."""
    if isinstance(value, bool) or float(value) != 1.0:
        raise ValueError(
            f"{value!r} is not {'a real number' if isinstance(value, bool) else 1}: a problem "
            "on (0, L) is run on (0, 1) as its image under x = L*y, t = L^2*s (README: Units)"
        )
    return 1.0


# Every key that config_from_dict accepts, by section, with the reader of its
# value; a nested table is a subsection. Any other key is a config error, and
# a key that a config leaves out takes its record's default.
_CONFIG_KEYS = {
    "grid": {"n_interior": _integer, "length": _unit_length},
    "K": _integer,
    "model": {"rho": _real, "alpha": _real, "lambda": _real, "aux": {"slope": _real}},
    "noise": {"mu": _reals},
    "solver": {"dt": _real, "t_final": _real, "record_every": _integer, "extinction_eps": _real},
    "initial": {
        "kind": str, "mode": _integer, "values": _reals, "target_hm1_norm": _optional_real,
    },
    "n_paths": _integer,
    "master_seed": _integer,
    "checkpoints": _reals,
    "gamma": _optional_real,
    "convergence_lambdas": _reals,
    "gamma_n_starts": None,  # read by nothing; perfbench writes it until it moves to _REMOVED_KEYS
}
# retired keys, each with why it went
_REMOVED_KEYS = {
    "model.solver_tol": "the resolvent is explicit in the pressure and has no tolerance",
    "model.max_iter": "the resolvent is explicit in the pressure and has no iteration budget",
    "model.aux.kind": "the auxiliary term is model.aux.slope times r, none at slope 0",
    "solver.newton_tol": "the drift stage's tolerance is fixed (stepper._NEWTON_TOL)",
    "solver.newton_max_iter": "the drift stage's budget is fixed (stepper._NEWTON_MAX_ITER)",
}


def _read(section, table: dict, path: str = "") -> dict:
    """The values of section's keys, each read by table, nested as table is."""
    if not isinstance(section, dict):
        raise ConfigError(f"config section {path or '(top level)'!r} must be a mapping")
    values = {}
    for key, value in section.items():
        dotted = f"{path}.{key}" if path else str(key)
        if dotted in _REMOVED_KEYS:
            raise ConfigError(f"config key {dotted!r} was removed: {_REMOVED_KEYS[dotted]}")
        if key not in table:
            raise ConfigError(f"unknown config key {dotted!r}")
        reader = table[key]
        if isinstance(reader, dict):
            values[key] = _read(value, reader, dotted)
        elif reader is not None:
            try:
                values[key] = reader(value)
            except (TypeError, ValueError, OverflowError) as exc:
                raise ConfigError(f"bad value for config key {dotted!r}: {exc}") from exc
    return values


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Parse a raw config mapping; an unknown or removed key is a ConfigError."""
    try:
        c = _read(raw, _CONFIG_KEYS)
        m = c.pop("model")
        # model.lambda is ModelParams.lam and model.aux.slope its aux_slope
        given = {f"aux_{key}": v for key, v in m.get("aux", {}).items()}
        if "lambda" in m:
            given["lam"] = m["lambda"]
        model = ModelParams(DiffusionLaw(rho=m["rho"], alpha=m["alpha"]), **given)
        return ExperimentConfig(
            grid=GridSpec(c.pop("grid")["n_interior"]),
            model=model,
            mu=c.pop("noise")["mu"],
            solver=SolverConfig(**c.pop("solver")),
            initial=InitialSpec(**c.pop("initial")),
            **c,
        )
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad experiment config: {exc}") from exc


def config_from_yaml(path) -> ExperimentConfig:
    with open(path) as fh:
        try:
            raw = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ConfigError(f"{path} is not valid YAML: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path} does not contain a mapping")
    return config_from_dict(raw)


def make_initial(spec: InitialSpec, grid: GridSpec, basis: SpectralBasis) -> np.ndarray:
    """Construct the initial state, a read-only (n,) array, rescaled to the
    target H^-1 norm.

    Custom values pass through unscaled. A state of any kind whose L^2 norm
    overflows is a ConfigError: the implicit stage's tolerance scales with it.
    """
    if spec.kind == "custom":
        x, source = np.array(spec.values, dtype=float), "custom values give"
    else:
        if spec.kind == "eigenmode":
            profile = basis.mode(spec.mode)
        else:  # hat bump centered in the domain
            c, w = 0.5, 0.25
            profile = np.maximum(0.0, 1.0 - np.abs(grid.nodes - c) / w)
        nrm = norm_hm1(profile)
        if nrm == 0.0:
            raise ConfigError("zero initial profile with a positive target norm")
        x = profile * (spec.target_hm1_norm / nrm)
        source = f"target_hm1_norm {spec.target_hm1_norm:g} gives"
    with np.errstate(over="ignore", invalid="ignore"):
        if not np.isfinite(norm_l2_array(x)):
            raise ConfigError(f"{source} an initial state whose squared L^2 norm overflows")
    x.flags.writeable = False
    return x


def wilson_interval(successes: int, n: int) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion, at the 95% level."""
    if n < 1:
        raise ValueError("n must be positive")
    p = successes / n
    z = _Z95
    denom = 1.0 + z**2 / n
    center = (p + z**2 / (2 * n)) / denom
    half = z * np.sqrt(p * (1 - p) / n + z**2 / (4 * n**2)) / denom
    lo = max(0.0, min(center - half, p))
    hi = min(1.0, max(center + half, p))
    return float(lo), float(hi)


@dataclass
class ComparisonRow:
    """One checkpoint's verdict; row i belongs to summary.checkpoints[i]."""

    bound: float
    passed: bool


@dataclass
class ComparisonReport:
    rows: list[ComparisonRow]
    overall_pass: bool


@dataclass
class SupermartingaleReport:
    means: list[float]
    standard_errors: list[float]
    pair_pass: list[bool]
    overall_pass: bool


def ensemble_supermartingale_test(
    trajectories: list[Trajectory], config: SolverConfig, checkpoints, c_star: float, alpha: float
) -> SupermartingaleReport:
    """Mean-decrease check on M(t) = discounted_norm(t, |X(t)|_{-1}, c_star,
    alpha) over paths run under config (one row per record time each),
    evaluated at the last row of config.record_times at or before
    step_time(t) of each checkpoint t: at each consecutive checkpoint pair
    (r, t) require mean M(t) <= mean M(r) + 2*SE(t).

    Pathwise supermartingale behavior is not directly assertable from an
    ensemble; the mean inequality is its falsifiable consequence. config must
    be the one the paths ran under; the row check catches another row count only.
    """
    n = len(trajectories)
    if n < 100:
        raise ValueError(f"need at least 100 paths, got {n}")
    record_times = config.record_times
    if any(traj.hm1_norms.size != record_times.size for traj in trajectories):
        raise ValueError(f"a path's rows are not the {record_times.size} of config.record_times")
    steps = [config.step_time(t) for t in checkpoints]
    rows = np.searchsorted(record_times, steps, side="right") - 1
    if rows.min() < 0:
        raise ValueError(f"checkpoint {min(checkpoints)} precedes the recorded series")
    hm1 = np.array([traj.hm1_norms[rows] for traj in trajectories])
    # on arrays, so numpy takes the kernels that a whole column would (a
    # numpy scalar's power can round differently)
    samples = discounted_norm(record_times[rows], hm1, c_star, alpha)
    means = samples.mean(axis=0)
    ses = samples.std(axis=0, ddof=1) / np.sqrt(n)
    pair_pass = [bool(b <= a + 2.0 * se) for a, b, se in zip(means, means[1:], ses[1:])]
    return SupermartingaleReport(
        means=means.tolist(),
        standard_errors=ses.tolist(),
        pair_pass=pair_pass,
        overall_pass=all(pair_pass),
    )


@dataclass
class EnsembleSummary:
    checkpoints: list[float]
    empirical_cdf: list[float]
    wilson_lo: list[float]
    wilson_hi: list[float]
    supermartingale_report: Optional[SupermartingaleReport]
    extinct_fraction: float
    n_failed: int
    gamma_used: float
    c_star: float
    x0_norm_hm1: float
    tau_hats: list[Optional[float]]
    positivity_violations: int
    coercivity_violations: int
    # solver work summed (worst residual: maxed) over all paths;
    # deterministic, so serialized
    diagnostics: SolverCounts
    # the bound at each checkpoint (its one copy) vs the CDF; run_ensemble sets it
    comparison: Optional[ComparisonReport] = None
    # the trajectories of the paths that did not fail, in path order;
    # never serialized
    trajectories: Optional[list[Trajectory]] = None

    def bound_inputs(self, alpha: float, rho: float) -> BoundInputs:
        """The bound's inputs under (alpha, rho); perfbench/run.py calls it."""
        return BoundInputs(
            x_norm_hm1=self.x0_norm_hm1,
            alpha=alpha,
            rho=rho,
            gamma=self.gamma_used,
            c_star=self.c_star,
        )

    def to_json(self) -> str:
        """Every field but trajectories, nested records as plain dicts: a
        function of the config and the seed alone."""
        d = {}
        for f in fields(self):
            if f.name != "trajectories":
                value = getattr(self, f.name)
                d[f.name] = asdict(value) if is_dataclass(value) else value
        return json.dumps(d, sort_keys=True, indent=2)


def resolve_gamma(config: ExperimentConfig) -> float:
    """The config's gamma override, else the dual-power estimate on its grid."""
    if config.gamma is not None:
        return config.gamma
    return estimate_gamma(config.grid, config.model.diffusion.alpha).value


def _build_context(config: ExperimentConfig):
    """The set-up every command shares: the noise, the initial state and the
    bound's inputs (|x0|_-1, the law, gamma and c_star); a ConfigError if
    c_star overflows."""
    basis = build_basis(config.grid, max(config.K, config.initial.mode))
    noise = NoiseSpec(mu=np.asarray(config.mu), basis=basis)
    x0 = make_initial(config.initial, config.grid, basis)
    with np.errstate(over="ignore"):
        cs = c_star(noise)
    if not np.isfinite(cs):
        raise ConfigError(
            f"noise.mu {noise.mu.tolist()} gives c_star = {cs}, past the float range"
        )
    law = config.model.diffusion
    inputs = BoundInputs(norm_hm1(x0), law.alpha, law.rho, resolve_gamma(config), cs)
    return noise, x0, inputs


def _run_one(
    config: ExperimentConfig, noise: NoiseSpec, x0: np.ndarray, gamma: float, path_index: int
) -> Trajectory:
    return run_path(
        x0,
        config.solver,
        config.model,
        noise,
        seed=(config.master_seed, path_index),
        gamma_check=gamma,
    )


def run_ensemble(config: ExperimentConfig, workers: int = 1) -> EnsembleSummary:
    """Run n_paths independent paths and aggregate the extinction statistics.

    Paths are distributed over worker processes; results are collected in
    path order so the summary does not depend on scheduling. Raises
    PathFailedError if more than 1% of paths fail (silent exclusion would
    bias the CDF). The summary carries its comparison with the theory bound,
    whose inputs are built, and so checked, before any path runs.
    """
    noise, x0, inputs = _build_context(config)
    run_one = partial(_run_one, config, noise, x0, inputs.gamma)
    indices = range(config.n_paths)
    if workers <= 1:
        results = [run_one(i) for i in indices]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run_one, indices))

    ok = [r for r in results if r.failure is None]
    n_failed = len(results) - len(ok)
    if not ok or n_failed > 0.01 * config.n_paths:
        reasons = {r.failure for r in results if r.failure is not None}
        raise PathFailedError(
            f"{n_failed}/{config.n_paths} paths failed (cap 1%): {sorted(reasons)}"
        )

    n_ok = len(ok)
    checkpoints = list(config.checkpoints)
    cdf, lo, hi = [], [], []
    for t in checkpoints:
        step = config.solver.step_time(t)
        k = sum(r.tau_hat is not None and r.tau_hat <= step for r in ok)
        cdf.append(k / n_ok)
        w = wilson_interval(k, n_ok)
        lo.append(w[0])
        hi.append(w[1])

    sm_report = None if n_ok < 100 else ensemble_supermartingale_test(
        ok, config.solver, checkpoints, inputs.c_star, inputs.alpha
    )

    # positivity is only promised from a nonnegative start
    floor = -_POSITIVITY_TOL * max(1.0, float(norm_l2_array(x0)))
    nonnegative_start = bool(np.all(x0 >= 0))
    summary = EnsembleSummary(
        checkpoints=checkpoints,
        empirical_cdf=cdf,
        wilson_lo=lo,
        wilson_hi=hi,
        supermartingale_report=sm_report,
        extinct_fraction=sum(r.tau_hat is not None for r in ok) / n_ok,
        n_failed=n_failed,
        gamma_used=inputs.gamma,
        c_star=inputs.c_star,
        x0_norm_hm1=inputs.x_norm_hm1,
        tau_hats=[r.tau_hat for r in results],
        positivity_violations=(
            sum(not np.all(r.min_values >= floor) for r in ok) if nonnegative_start else 0
        ),
        coercivity_violations=sum(r.coercivity_violations for r in ok),
        diagnostics=SolverCounts(
            newton_iters=sum(r.solver_counts.newton_iters for r in results),
            halvings=sum(r.solver_counts.halvings for r in results),
            backtracks=sum(r.solver_counts.backtracks for r in results),
            worst_residual=max(r.solver_counts.worst_residual for r in results),
        ),
        trajectories=ok,
    )
    summary.comparison = compare_with_bound(summary, inputs)
    return summary


def compare_with_bound(summary: EnsembleSummary, inputs: BoundInputs) -> ComparisonReport:
    """PASS at a checkpoint iff empirical >= bound - Wilson half-width - _SLACK."""
    rows = []
    for t, emp, lo, hi in zip(
        summary.checkpoints, summary.empirical_cdf, summary.wilson_lo, summary.wilson_hi
    ):
        bound = extinction_bound(t, inputs)
        half = (hi - lo) / 2.0
        rows.append(ComparisonRow(bound=bound, passed=bool(emp >= bound - half - _SLACK)))
    return ComparisonReport(rows=rows, overall_pass=all(r.passed for r in rows))
