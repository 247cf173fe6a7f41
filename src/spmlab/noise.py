"""Truncated multiplicative eigenbasis noise.

The forcing is sum_{k<=K} mu_k * X * e_k * dbeta_k with independent Brownian
motions beta_k, so the zero state is absorbing. Streams are counter-based:
one Philox stream per (master_seed, path_index), which makes ensembles
bitwise reproducible regardless of worker scheduling. A step's increments
are a plain (K,) array: sample_increments draws them and kick_factor turns
them into the step's nodewise factor, which run_path multiplies the state
by; nothing else keeps them.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import SpectralBasis


@dataclass(frozen=True)
class NoiseSpec:
    mu: np.ndarray
    basis: SpectralBasis

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=float)
        if mu.ndim != 1 or mu.size > self.basis.size:
            raise ValueError(
                f"need 1-D mu with at most {self.basis.size} entries, got shape {mu.shape}"
            )
        if not np.all(np.isfinite(mu)):
            raise ValueError("mu contains non-finite entries")
        mu = mu.copy()
        mu.flags.writeable = False
        object.__setattr__(self, "mu", mu)

    @property
    def n_modes(self) -> int:
        return self.mu.size

    def scaled_modes(self) -> np.ndarray:
        """(K, n) array whose rows are mu_k * e_k, the weights of kick_factor."""
        return self.mu[:, None] * self.basis.modes[: self.n_modes]


def c_star(noise: NoiseSpec) -> float:
    """sum mu_k^2 * (lambda_k^h)^2 over the truncated modes.

    Uses the discrete eigenvalues of the simulation basis so the theory bound
    is tested against the same discrete system that is simulated.
    """
    lam = noise.basis.eigenvalues[: noise.n_modes]
    return float(np.sum(noise.mu**2 * lam**2))


def make_stream(master_seed: int, path_index: int) -> np.random.Generator:
    """Counter-based stream keyed by (master_seed, path_index)."""
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(path_index,))
    return np.random.Generator(np.random.Philox(ss))


def sample_increments(dt: float, n_modes: int, stream: np.random.Generator) -> np.ndarray:
    """The (n_modes,) Wiener increments dbeta_k ~ N(0, dt) of one step, the
    next n_modes normal draws of the stream."""
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    return stream.normal(0.0, np.sqrt(dt), n_modes)


def kick_factor(dbeta: np.ndarray, scaled_modes: np.ndarray) -> np.ndarray:
    """The nodewise noise factor 1 + sum_k mu_k * e_k * dbeta_k of one step.

    dbeta is one step's (K,) increments (sample_increments); scaled_modes is
    NoiseSpec.scaled_modes(), which run_path builds once per path.
    """
    if dbeta.size != scaled_modes.shape[0]:
        raise ValueError(
            f"got {dbeta.size} increments for {scaled_modes.shape[0]} noise modes"
        )
    return 1.0 + dbeta @ scaled_modes
