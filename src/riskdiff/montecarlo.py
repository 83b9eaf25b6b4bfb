"""Propagation of coefficient uncertainty through the effect functionals.

Coefficient vectors are drawn from the normal approximation
N(pi_hat, sigma_hat) of the ML estimate and mapped through the effect
functionals, giving an empirical approximation to the distribution of the
estimated (te1, te2, int).

Reproducibility contract: draw i of a k-term model takes its k standard
normals from its own Philox4x64-10 stream (Salmon et al., "Parallel random
numbers: as easy as 1, 2, 3", SC'11), exactly numpy's
``Generator(Philox(key=[seed % 2**64, i])).random(k)``:

- key ``(seed mod 2**64, i)``; the counter starts at 1, so the stream is
  the blocks for counters ``[1,0,0,0], [2,0,0,0], ...`` (ceil(k/4) blocks);
- each block gives four 64-bit words, used in order v0..v3, and word x
  becomes the uniform ``(x >> 11) * 2**-53``;
- a uniform of exactly 0.0 becomes ``2**-53``, and normal j is
  ``ndtri`` of uniform j.

The streams of a whole chunk of draws are computed at once in numpy
``uint64`` arithmetic, and the result is bit-identical for any chunking or
parallel schedule.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass

import numpy as np

from .effects import StandardizationSet, effect_triples_batch
from .errors import NotPositiveDefinite
from .glm import FitResult, ModelSpec

JITTER_LADDER = (1e-10, 1e-9, 1e-8, 1e-7, 1e-6)
DEFAULT_N_DRAWS = 1000
#: Most draws x standardization rows one chunk may evaluate at once; caps
#: the effect kernel's (draws, rows) temporaries at 8 MB each.
CHUNK_ELEMENTS = 1 << 20
#: Draws per block of draws.csv: formatting .tolist() floats is faster than
#: numpy scalars, and a block bounds how many are held at once.
CSV_BLOCK = 4096

_PHILOX_M = (np.uint64(0xD2E7470EE14C6C93), np.uint64(0xCA5A826395121157))
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
_LO32 = np.uint64(0xFFFFFFFF)
_U32 = np.uint64(32)


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
    from scipy.linalg.lapack import dpotrf  # on use: most commands need no scipy
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


def _mulhilo(a, m):
    """High and low 64-bit words of the 128-bit products a * m.

    Done in 32-bit halves, since numpy has no 128-bit integers; the low
    word is the wrapping uint64 product.
    """
    a_lo, a_hi = a & _LO32, a >> _U32
    m_lo, m_hi = m & _LO32, m >> _U32
    ll, lh, hl = a_lo * m_lo, a_lo * m_hi, a_hi * m_lo
    mid = (ll >> _U32) + (lh & _LO32) + (hl & _LO32)
    hi = a_hi * m_hi + (lh >> _U32) + (hl >> _U32) + (mid >> _U32)
    return hi, a * m


def _philox_uniforms(seed: int, start: int, stop: int, k: int) -> np.ndarray:
    """(stop - start, k) uniforms: row i - start is draw i's stream.

    Reproduces numpy's Philox(key=[seed % 2**64, i]).random(k) bit for bit
    (see the module docstring), for all draws of the chunk at once.
    """
    n, blocks = stop - start, -(-k // 4)
    c0 = np.tile(np.arange(1, blocks + 1, dtype=np.uint64), (n, 1))
    c1 = c2 = c3 = np.zeros((n, blocks), dtype=np.uint64)
    k0 = seed % (1 << 64)  # a Python int: uint64 scalars warn on wrapping
    k1 = (np.uint64(start) + np.arange(n, dtype=np.uint64))[:, None]
    for r in range(_PHILOX_ROUNDS):
        if r:
            k0 = (k0 + _PHILOX_W[0]) % (1 << 64)
            k1 = k1 + np.uint64(_PHILOX_W[1])
        hi0, lo0 = _mulhilo(c0, _PHILOX_M[0])
        hi1, lo1 = _mulhilo(c2, _PHILOX_M[1])
        c0, c1, c2, c3 = hi1 ^ c1 ^ np.uint64(k0), lo1, hi0 ^ c3 ^ k1, lo0
    words = np.stack((c0, c1, c2, c3), axis=-1).reshape(n, 4 * blocks)
    return (words[:, :k] >> np.uint64(11)) * 0.5 ** 53


def _normals(seed: int, start: int, stop: int, k: int) -> np.ndarray:
    """(stop - start, k) standard normals for draws start..stop-1."""
    from scipy.special import ndtri  # on use: most commands need no scipy
    u = _philox_uniforms(seed, start, stop, k)
    # random() can return exactly 0.0, whose normal quantile is -inf
    u[u == 0.0] = 0.5 ** 53
    return ndtri(u)


def _standard_normals(seed: int, index: int, k: int) -> np.ndarray:
    """k standard normals for draw `index`, independent of any other draw."""
    return _normals(seed, index, index + 1, k)[0]


def _draws(pi_hat, L, seed: int, start: int, stop: int) -> np.ndarray:
    """Coefficient draws start..stop-1: pi_hat + L z, z from each draw's stream.

    The affine map is accumulated column by column in fixed order, avoiding
    matrix multiplication on purpose: BLAS kernels pick different summation
    orders for different stack heights, which would make the draw bits
    depend on chunk size and break the determinism contract.
    """
    k = len(pi_hat)
    z = _normals(seed, start, stop, k)
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
        """One line per draw; every value is the repr of its Python float."""
        lines = ["draw_index,te1,te2,int"]
        for start in range(0, self.n_draws, CSV_BLOCK):
            block = slice(start, start + CSV_BLOCK)
            lines += [f"{i},{a!r},{b!r},{c!r}" for i, a, b, c in zip(
                range(start, self.n_draws),
                *(np.asarray(v[block], dtype=float).tolist()
                  for v in (self.te1, self.te2, self.int_)))]
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
    substream. A chunk holds at most chunk_size draws and at most
    CHUNK_ELEMENTS draw-by-row evaluations; at most one process per CPU
    and per chunk is started.
    """
    if n_draws < 1:
        raise ValueError("n_draws must be >= 1")
    L, jitter = _factor_with_jitter(fit.sigma_hat, allow_jitter)
    te1 = np.empty(n_draws)
    te2 = np.empty(n_draws)
    int_ = np.empty(n_draws)
    per_chunk = max(1, min(chunk_size, CHUNK_ELEMENTS // std.n))
    chunks = [(fit.pi_hat, L, spec, std, seed, start,
               min(start + per_chunk, n_draws))
              for start in range(0, n_draws, per_chunk)]
    processes = min(workers, os.cpu_count() or 1, len(chunks))
    if processes > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=processes) as pool:
            results = list(pool.map(_eval_chunk, chunks))
    else:
        results = [_eval_chunk(c) for c in chunks]
    for start, (t1, t2, ti) in results:
        stop = start + len(t1)
        te1[start:stop], te2[start:stop], int_[start:stop] = t1, t2, ti
    return EffectDistribution(te1=te1, te2=te2, int_=int_, n_draws=n_draws,
                              seed=seed, source_hash=fit_identity_hash(fit),
                              jitter=jitter)
