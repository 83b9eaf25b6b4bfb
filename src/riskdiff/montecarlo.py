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

``ndtri`` is cephes' normal quantile (as in ``scipy.special.ndtri``): the
same rational approximations, evaluated in the same order, with libm's
``log`` taken through ``math.log``. The streams of a whole chunk of draws
are computed at once in numpy ``uint64`` arithmetic, and the result is
bit-identical for any chunking or parallel schedule. The covariance factor
is a fixed-order column Cholesky built from elementwise operations, with
no BLAS, so its bits do not depend on the installed linear algebra library.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass

import numpy as np

from .dataset import _mulhilo, columns_csv
from .effects import StandardizationSet, effect_triples_batch
from .errors import NotPositiveDefinite
from .glm import FitResult, ModelSpec

JITTER_LADDER = (1e-10, 1e-9, 1e-8, 1e-7, 1e-6)
DEFAULT_N_DRAWS = 1000
#: Most draws x distinct covariate rows one chunk may evaluate at once: it
#: sizes the pool's tasks. The kernel's (draws, distinct rows) temporaries
#: are bounded by effects.BLOCK_ELEMENTS.
CHUNK_ELEMENTS = 1 << 20

_PHILOX_M = (np.uint64(0xD2E7470EE14C6C93), np.uint64(0xCA5A826395121157))
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10

# cephes ndtri: sqrt(2 pi), the branch point exp(-2), and the coefficients
# of the central (P0/Q0) and tail (P1/Q1 for 2 <= x < 8, P2/Q2 for x >= 8)
# rational approximations, highest power first for np.polyval, whose Horner
# steps are cephes'; each Q starts with the 1.0 that p1evl leaves implicit.
_S2PI = 2.50662827463100050242E0
_EXP_M2 = 0.13533528323661269189
_NDTRI_P0 = (-5.99633501014107895267E1, 9.80010754185999661536E1,
             -5.66762857469070293439E1, 1.39312609387279679503E1,
             -1.23916583867381258016E0)
_NDTRI_Q0 = (1.0, 1.95448858338141759834E0, 4.67627912898881538453E0,
             8.63602421390890590575E1, -2.25462687854119370527E2,
             2.00260212380060660359E2, -8.20372256168333339912E1,
             1.59056225126211695515E1, -1.18331621121330003142E0)
_NDTRI_P1 = (4.05544892305962419923E0, 3.15251094599893866154E1,
             5.71628192246421288162E1, 4.40805073893200834700E1,
             1.46849561928858024014E1, 2.18663306850790267539E0,
             -1.40256079171354495875E-1, -3.50424626827848203418E-2,
             -8.57456785154685413611E-4)
_NDTRI_Q1 = (1.0, 1.57799883256466749731E1, 4.53907635128879210584E1,
             4.13172038254672030440E1, 1.50425385692907503408E1,
             2.50464946208309415979E0, -1.42182922854787788574E-1,
             -3.80806407691578277194E-2, -9.33259480895457427372E-4)
_NDTRI_P2 = (3.23774891776946035970E0, 6.91522889068984211695E0,
             3.93881025292474443415E0, 1.33303460815807542389E0,
             2.01485389549179081538E-1, 1.23716634817820021358E-2,
             3.01581553508235416007E-4, 2.65806974686737550832E-6,
             6.23974539184983293730E-9)
_NDTRI_Q2 = (1.0, 6.02427039364742014255E0, 3.67983563856160859403E0,
             1.37702099489081330271E0, 2.16236993594496635890E-1,
             1.34204006088543189037E-2, 3.28014464682127739104E-4,
             2.89247864745380683936E-6, 6.79019408009981274425E-9)


def cholesky(sigma: np.ndarray) -> np.ndarray:
    """Lower-triangular L with L @ L.T = sigma, in a fixed order with no BLAS.

    Reads only the lower triangle. Column j is
    ``sigma[j:, j] - sum_p L[j:, p] * L[j, p]``, summed in order of p (the
    order of reference LAPACK's dpotf2), then its first entry gives the
    pivot ``L[j, j] = sqrt(col[0])`` and the rest are divided by it. Raises
    NotPositiveDefinite with the index of the first pivot that is not
    positive (NaN included).
    """
    sigma = np.asarray(sigma, dtype=float)
    k = sigma.shape[0]
    if sigma.shape != (k, k):
        raise ValueError("matrix must be square")
    asym = np.max(np.abs(sigma - sigma.T)) if k else 0.0
    if asym > 1e-8 * max(np.max(np.abs(sigma)), 1.0):
        raise ValueError("matrix not symmetric within tolerance")
    L = np.zeros((k, k))
    for j in range(k):
        acc = np.zeros(k - j)
        for p in range(j):
            acc += L[j:, p] * L[j, p]
        col = sigma[j:, j] - acc
        if not col[0] > 0.0:
            raise NotPositiveDefinite(pivot=j)
        L[j, j] = np.sqrt(col[0])
        L[j + 1:, j] = col[1:] / L[j, j]
    return L


def _factor_with_jitter(sigma, allow_jitter):
    """Cholesky factor, optionally after the smallest admissible diagonal jitter.

    Returns (L, jitter_used). Repairing a covariance silently is a
    correctness hazard, so jitter requires explicit opt-in.
    """
    if np.all(sigma == 0.0):
        # degenerate-allowed special case: every draw equals the center
        return np.zeros_like(sigma), 0.0
    for eps in (0.0, *JITTER_LADDER):
        try:
            return cholesky(sigma + eps * np.eye(len(sigma))), eps
        except NotPositiveDefinite:
            if not allow_jitter:
                raise
    raise NotPositiveDefinite(pivot=-1)


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


def _libm_log(v):
    """Natural log of each entry by libm, as C code calls it.

    numpy's vectorized log may differ from libm in the last bit.
    """
    return np.fromiter(map(math.log, v.tolist()), float, len(v))


def _ndtri(u: np.ndarray) -> np.ndarray:
    """Standard normal quantiles of a 1-d u in (0, 1), bit-identical to cephes.

    With y the nearer tail probability: the central approximation where
    exp(-2) < y < 1 - exp(-2), else the tail ones in x = sqrt(-2 log y),
    split at x = 8; only tail entries pay for libm's log.
    """
    upper = u > 1.0 - _EXP_M2
    y = np.where(upper, 1.0 - u, u)
    out = np.empty_like(u)
    is_central = y > _EXP_M2
    central, tail = np.flatnonzero(is_central), np.flatnonzero(~is_central)
    c = y.take(central) - 0.5
    c2 = c * c
    out.put(central, (c + c * (c2 * np.polyval(_NDTRI_P0, c2)
                                / np.polyval(_NDTRI_Q0, c2))) * _S2PI)
    x = np.sqrt(-2.0 * _libm_log(y.take(tail)))
    z = 1.0 / x
    near, far = (z * np.polyval(p, z) / np.polyval(q, z)
                 for p, q in ((_NDTRI_P1, _NDTRI_Q1), (_NDTRI_P2, _NDTRI_Q2)))
    x = x - _libm_log(x) / x - np.where(x < 8.0, near, far)
    out.put(tail, np.where(upper.take(tail), x, -x))
    return out


def _normals(seed: int, start: int, stop: int, k: int) -> np.ndarray:
    """(stop - start, k) standard normals for draws start..stop-1."""
    u = _philox_uniforms(seed, start, stop, k)
    # random() can return exactly 0.0, whose normal quantile is -inf
    u[u == 0.0] = 0.5 ** 53
    return _ndtri(u.ravel()).reshape(u.shape)


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

    def to_csv(self) -> str:
        """One line per draw: its index, te1, te2 and int, each written as
        the repr of its Python value (dataset.columns_csv)."""
        return columns_csv("draw_index,te1,te2,int", [
            np.arange(self.n_draws),
            *(np.asarray(v, dtype=float) for v in (self.te1, self.te2,
                                                   self.int_))])


def fit_identity_hash(fit: FitResult) -> str:
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(fit.pi_hat).tobytes())
    h.update(np.ascontiguousarray(fit.sigma_hat).tobytes())
    h.update(",".join(fit.term_names).encode())
    return h.hexdigest()[:16]


def _eval_chunk(args):
    pi_hat, L, spec, std, seed, start, stop = args
    return effect_triples_batch(_draws(pi_hat, L, seed, start, stop),
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
    CHUNK_ELEMENTS draws x distinct rows, the rows the kernel evaluates,
    which sizes the pool's tasks; within a chunk the effect kernel works in
    blocks of at most effects.BLOCK_ELEMENTS draws x distinct rows, divides
    each distinct row's count by 1 + exp(-eta) and sums those along the
    rows for each draw alone. At most one process per CPU and per chunk is
    started.
    """
    if n_draws < 1:
        raise ValueError("n_draws must be >= 1")
    L, jitter = _factor_with_jitter(fit.sigma_hat, allow_jitter)
    per_chunk = max(1, min(chunk_size, CHUNK_ELEMENTS // len(std.distinct)))
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
    te1, te2, int_ = (np.concatenate(parts) for parts in zip(*results))
    return EffectDistribution(te1=te1, te2=te2, int_=int_, n_draws=n_draws,
                              seed=seed, source_hash=fit_identity_hash(fit),
                              jitter=jitter)
