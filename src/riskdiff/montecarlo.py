"""Propagation of coefficient uncertainty through the effect functionals.

Coefficient vectors are drawn from the normal approximation
N(pi_hat, sigma_hat) of the ML estimate and mapped through the effect
functionals, giving an empirical approximation to the distribution of the
estimated (te1, te2, int).

Reproducibility contract: draw i is generated from a counter-based Philox
stream keyed by (seed, i), with standard normals obtained by inverse-CDF
transform of one uniform per variate. The result is bit-identical for any
chunking or parallel schedule.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrf
from scipy.special import ndtri

from .effects import StandardizationSet, effect_triples_batch
from .errors import NotPositiveDefinite
from .glm import FitResult, ModelSpec

JITTER_LADDER = (1e-10, 1e-9, 1e-8, 1e-7, 1e-6)
DEFAULT_N_DRAWS = 1000


def cholesky(sigma: np.ndarray) -> np.ndarray:
    """Lower-triangular L with L @ L.T = sigma, factored by LAPACK dpotrf.

    Raises NotPositiveDefinite with the pivot index of the first
    non-positive leading minor.
    """
    sigma = np.asarray(sigma, dtype=float)
    k = sigma.shape[0]
    if sigma.shape != (k, k):
        raise ValueError("matrix must be square")
    asym = np.max(np.abs(sigma - sigma.T)) if k else 0.0
    if asym > 1e-8 * max(np.max(np.abs(sigma)), 1.0):
        raise ValueError("matrix not symmetric within tolerance")
    L, info = dpotrf(sigma, lower=1, clean=1)
    if info > 0:
        raise NotPositiveDefinite(pivot=info - 1)
    return L


def _factor_with_jitter(sigma, allow_jitter):
    """Cholesky factor, optionally after the smallest admissible diagonal jitter.

    Returns (L, jitter_used). Repairing a covariance silently is a
    correctness hazard, so jitter requires explicit opt-in.
    """
    if np.all(sigma == 0.0):
        # degenerate-allowed special case: every draw equals the center
        return np.zeros_like(sigma), 0.0
    try:
        return cholesky(sigma), 0.0
    except NotPositiveDefinite:
        if not allow_jitter:
            raise
    k = sigma.shape[0]
    for eps in JITTER_LADDER:
        try:
            return cholesky(sigma + eps * np.eye(k)), eps
        except NotPositiveDefinite:
            continue
    raise NotPositiveDefinite(pivot=-1)


def _standard_normals(seed: int, index: int, k: int) -> np.ndarray:
    """k standard normals for draw `index`, independent of any other draw."""
    bg = np.random.Philox(key=np.array([seed % (1 << 64), index],
                                       dtype=np.uint64))
    u = np.random.Generator(bg).random(k)
    # random() can return exactly 0.0, whose normal quantile is -inf
    u[u == 0.0] = 0.5 ** 53
    return ndtri(u)


def _draws(pi_hat, L, seed: int, start: int, stop: int) -> np.ndarray:
    """Coefficient draws start..stop-1: pi_hat + L z, z from each draw's stream.

    The affine map is accumulated column by column in fixed order, avoiding
    matrix multiplication on purpose: BLAS kernels pick different summation
    orders for different stack heights, which would make the draw bits
    depend on chunk size and break the determinism contract.
    """
    k = len(pi_hat)
    z = np.empty((stop - start, k))
    for i in range(start, stop):
        z[i - start] = _standard_normals(seed, i, k)
    acc = np.zeros_like(z)
    for j in range(k):
        acc += z[:, j, None] * L[None, :, j]
    return pi_hat + acc


def sample_parameters(fit: FitResult, n_draws: int, seed: int,
                      allow_jitter: bool = False):
    """Draw coefficient vectors from N(pi_hat, sigma_hat).

    Returns (draws, jitter_used) where draws is an (n_draws, k) array.
    """
    if n_draws < 1:
        raise ValueError("n_draws must be >= 1")
    L, jitter = _factor_with_jitter(fit.sigma_hat, allow_jitter)
    return _draws(fit.pi_hat, L, seed, 0, n_draws), jitter


@dataclass(frozen=True)
class EffectDistribution:
    te1: np.ndarray
    te2: np.ndarray
    int_: np.ndarray
    n_draws: int
    seed: int
    source_hash: str
    jitter: float = 0.0

    def __post_init__(self):
        if not (len(self.te1) == len(self.te2) == len(self.int_) == self.n_draws):
            raise ValueError("draw arrays must all have length n_draws")

    def component(self, which: str) -> np.ndarray:
        return {"te1": self.te1, "te2": self.te2, "int": self.int_}[which.lower()]

    def metadata(self) -> dict:
        return {
            "n_draws": self.n_draws,
            "seed": self.seed,
            "source_hash": self.source_hash,
            "jitter": self.jitter,
        }

    def to_csv(self) -> str:
        lines = ["draw_index,te1,te2,int"]
        for i in range(self.n_draws):
            lines.append(f"{i},{float(self.te1[i])!r},"
                         f"{float(self.te2[i])!r},{float(self.int_[i])!r}")
        return "\n".join(lines) + "\n"


def fit_identity_hash(fit: FitResult) -> str:
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(fit.pi_hat).tobytes())
    h.update(np.ascontiguousarray(fit.sigma_hat).tobytes())
    h.update(",".join(fit.term_names).encode())
    return h.hexdigest()[:16]


def _eval_chunk(args):
    pi_hat, L, spec, std, seed, start, stop = args
    return start, effect_triples_batch(_draws(pi_hat, L, seed, start, stop),
                                       spec, std)


def effect_distribution(fit: FitResult, spec: ModelSpec,
                        std: StandardizationSet, n_draws: int, seed: int,
                        allow_jitter: bool = False,
                        chunk_size: int = 4096,
                        workers: int = 1) -> EffectDistribution:
    """Map N(pi_hat, sigma_hat) draws through the effect functionals.

    Evaluation is chunked for memory and parallelism; neither chunking nor
    worker count can change the result because each draw owns its own RNG
    substream.
    """
    if n_draws < 1:
        raise ValueError("n_draws must be >= 1")
    L, jitter = _factor_with_jitter(fit.sigma_hat, allow_jitter)
    te1 = np.empty(n_draws)
    te2 = np.empty(n_draws)
    int_ = np.empty(n_draws)
    chunks = [(fit.pi_hat, L, spec, std, seed, start,
               min(start + chunk_size, n_draws))
              for start in range(0, n_draws, chunk_size)]
    if workers > 1 and len(chunks) > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_eval_chunk, chunks))
    else:
        results = [_eval_chunk(c) for c in chunks]
    for start, (t1, t2, ti) in results:
        stop = start + len(t1)
        te1[start:stop], te2[start:stop], int_[start:stop] = t1, t2, ti
    return EffectDistribution(te1=te1, te2=te2, int_=int_, n_draws=n_draws,
                              seed=seed, source_hash=fit_identity_hash(fit),
                              jitter=jitter)
