"""Command-line entry points.

Exit codes: 0 success, 2 config error, 3 numerical failure, 4 bound
comparison failure under --strict.
"""
from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import click
import numpy as np

from .harness import (
    ConfigError,
    EnsembleFailure,
    build_bound_inputs,
    config_from_yaml,
    resolve_gamma,
    run_ensemble,
    _build_context,
)
from .noise import c_star
from .operators import estimate_gamma
from .stepper import ImplicitStepError, PathFailedError, convergence_study, run_path
from .theory import discounted_norm, extinction_bound

EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_COMPARISON = 4

_NUMERICAL_ERRORS = (EnsembleFailure, PathFailedError, ImplicitStepError)


def _load_config(path, seed):
    """The config at path with the seed override applied; a file that cannot
    be read is a ConfigError."""
    try:
        cfg = config_from_yaml(path)
    except OSError as exc:
        raise ConfigError(exc) from exc
    return cfg if seed is None else replace(cfg, master_seed=seed)


@contextmanager
def _exit_on_error():
    """Exit EXIT_CONFIG on a config error (in the file, or an initial state
    that overflows once the context is built), EXIT_NUMERICAL on a numerical
    failure; print the error either way."""
    try:
        yield
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(EXIT_CONFIG)
    except _NUMERICAL_ERRORS as exc:
        click.echo(f"numerical failure: {exc}", err=True)
        sys.exit(EXIT_NUMERICAL)


def _outdir(out) -> Path:
    d = Path(out)
    d.mkdir(parents=True, exist_ok=True)
    return d


def _write_csv(path, header: str, rows) -> None:
    """Write header, then one line per row; each cell is the repr of a Python
    int or float (so a number, never np.float64(...)), or empty for None."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join("" if v is None else repr(v) for v in row) + "\n")


def common_options(fn):
    fn = click.option("--config", "config_path", required=True,
                      type=click.Path(exists=True, dir_okay=False),
                      help="experiment config (YAML)")(fn)
    fn = click.option("--seed", type=int, default=None,
                      help="override master_seed from the config")(fn)
    fn = click.option("--out", default=".", type=click.Path(file_okay=False),
                      help="output directory")(fn)
    return fn


@click.group()
def main():
    """Numerical laboratory for stochastic fast-diffusion extinction."""


@main.command()
@common_options
def simulate(config_path, seed, out):
    """Run a single path and write its trajectory CSV."""
    with _exit_on_error():
        cfg = _load_config(config_path, seed)
        noise, x0 = _build_context(cfg)
        traj = run_path(x0, cfg.solver, cfg.model, noise, seed=(cfg.master_seed, 0))
    if traj.failure is not None:
        click.echo(f"path failed: {traj.failure}", err=True)
        sys.exit(EXIT_NUMERICAL)
    # M(t), the discounted norm of the paper's supermartingale, under c*
    m = discounted_norm(traj.times, traj.hm1_norms, c_star(noise), cfg.model.diffusion.alpha)
    columns = (traj.times, traj.hm1_norms, traj.lp_norms, traj.min_values, traj.max_values, m)
    path = _outdir(out) / "trajectory.csv"
    _write_csv(
        path, "t,hm1_norm,lp_norm,min,max,supermartingale",
        zip(*(c.tolist() for c in columns)),
    )
    tau = "none" if traj.tau_hat is None else f"{traj.tau_hat:.6g}"
    click.echo(f"wrote {path} (extinct={traj.tau_hat is not None}, tau_hat={tau})")


@main.command()
@common_options
@click.option("--workers", type=int, default=1, help="parallel path workers")
@click.option("--strict", is_flag=True,
              help="exit 4 if the empirical CDF fails the theoretical bound")
def ensemble(config_path, seed, out, workers, strict):
    """Run a Monte Carlo ensemble; write summary JSON and tau CSV."""
    with _exit_on_error():
        summary = run_ensemble(_load_config(config_path, seed), workers=workers)
    d = _outdir(out)
    (d / "summary.json").write_text(summary.to_json() + "\n")
    _write_csv(d / "tau.csv", "path_index,tau_hat", enumerate(summary.tau_hats))
    click.echo(
        f"wrote {d / 'summary.json'} (extinct_fraction={summary.extinct_fraction:.3f}, "
        f"bound_pass={summary.comparison.overall_pass})"
    )
    if strict and not summary.comparison.overall_pass:
        click.echo("bound comparison FAILED", err=True)
        sys.exit(EXIT_COMPARISON)


@main.command()
@common_options
def bound(config_path, seed, out):
    """Write the theoretical extinction-probability bound curve as CSV."""
    with _exit_on_error():
        cfg = _load_config(config_path, seed)
        noise, x0 = _build_context(cfg)
        gamma = resolve_gamma(cfg)
        inputs = build_bound_inputs(cfg, x0, noise, gamma)
    ts = np.linspace(cfg.solver.t_final / 200, cfg.solver.t_final, 200)
    path = _outdir(out) / "bound.csv"
    _write_csv(path, "t,bound", ((t, extinction_bound(t, inputs)) for t in ts.tolist()))
    click.echo(f"wrote {path} (gamma={gamma:.6g}, c_star={inputs.c_star:.6g})")


@main.command()
@common_options
def gamma(config_path, seed, out):
    """Estimate the embedding coercivity constant and write it as JSON."""
    with _exit_on_error():
        cfg = _load_config(config_path, seed)
        est = estimate_gamma(cfg.grid, cfg.model.diffusion.alpha)
    path = _outdir(out) / "gamma.json"
    path.write_text(json.dumps(
        {
            "value": est.value,
            "alpha": est.alpha,
            "minimizer": est.minimizer.values.tolist(),
        },
        indent=2,
    ) + "\n")
    click.echo(f"wrote {path} (gamma={est.value:.6g})")


@main.command()
@common_options
def convergence(config_path, seed, out):
    """Regularization-parameter convergence study on a shared Brownian path."""
    with _exit_on_error():
        cfg = _load_config(config_path, seed)
        noise, x0 = _build_context(cfg)
        rows = convergence_study(
            x0, cfg.solver, cfg.model, noise,
            cfg.convergence_lambdas, seed=(cfg.master_seed, 0),
        )
    path = _outdir(out) / "convergence.csv"
    _write_csv(
        path, "lambda_coarse,lambda_fine,sup_hm1_distance,l2l2_distance",
        ((r.lam_coarse, r.lam_fine, r.sup_hm1, r.l2l2) for r in rows),
    )
    click.echo(f"wrote {path} ({len(rows)} pairs)")


if __name__ == "__main__":
    main()
