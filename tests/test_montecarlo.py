"""Tests for Cholesky factorization and the Monte Carlo draw pipeline."""

import concurrent.futures
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import dpotrf
from scipy.special import ndtri

from riskdiff import dataset, montecarlo
from riskdiff.dataset import CSV_BLOCK
from riskdiff.effects import BLOCK_ELEMENTS, StandardizationSet, effect_triple
from riskdiff.errors import NonFiniteEffects, NotPositiveDefinite
from riskdiff.fixtures import CARDIA_SCHEMA, cardia_cohort, cardia_fit
from riskdiff.glm import CARDIA_MODEL, FitResult, ModelSpec, expit_stable
from riskdiff.inference import histogram_csv
from riskdiff.montecarlo import (
    CHUNK_ELEMENTS,
    EffectDistribution,
    _draws,
    _ndtri,
    _normals,
    cholesky,
    effect_distribution,
    sample_parameters,
)

SAT_MODEL = ModelSpec.parse("z1,z2,z1*z2")


def many_rows_std(n=3000):
    """Covariate rows (age, male, urban) with a continuous age: all distinct."""
    rng = np.random.default_rng(n)
    return StandardizationSet(rows=np.column_stack(
        [rng.normal(62, 11, n), rng.integers(0, 2, (n, 2))]).astype(float))


def make_fit(pi, sigma, names=None):
    pi = np.asarray(pi, dtype=float)
    if names is None:
        names = tuple(f"b{j}" for j in range(len(pi)))
    return FitResult(pi_hat=pi, sigma_hat=np.asarray(sigma, dtype=float),
                     loglik=0.0, iterations=1, converged=True,
                     term_names=tuple(names))


class TestCholesky:
    def test_identity(self):
        assert np.array_equal(cholesky(np.eye(4)), np.eye(4))

    def test_two_by_two(self):
        L = cholesky(np.array([[4.0, 2.0], [2.0, 5.0]]))
        assert np.allclose(L, [[2.0, 0.0], [1.0, 2.0]], atol=1e-12)

    def test_int_lists_factor_as_floats(self):
        sigma = [[4, 2, 0], [2, 5, 1], [0, 1, 3]]
        assert (cholesky(sigma).tobytes()
                == cholesky(np.array(sigma, dtype=float)).tobytes())

    def test_reconstruction_error(self):
        rng = np.random.default_rng(4)
        A = rng.normal(size=(6, 6))
        sigma = A @ A.T + 1e-3 * np.eye(6)
        L = cholesky(sigma)
        rel = np.linalg.norm(L @ L.T - sigma) / np.linalg.norm(sigma)
        assert rel < 1e-8
        assert np.allclose(np.triu(L, 1), 0.0)

    def test_not_positive_definite_pivot(self):
        sigma = np.array([[1.0, 0.0, 0.0],
                          [0.0, -1.0, 0.0],
                          [0.0, 0.0, 1.0]])
        with pytest.raises(NotPositiveDefinite) as exc:
            cholesky(sigma)
        assert exc.value.pivot == 1

    def test_not_positive_definite_pivot_2_of_4(self):
        # leading minors 1, 1, -0.5, so the third pivot fails
        sigma = np.array([[1.0, 1.0, 1.0, 0.0],
                          [1.0, 2.0, 1.0, 0.0],
                          [1.0, 1.0, 0.5, 0.0],
                          [0.0, 0.0, 0.0, 1.0]])
        with pytest.raises(NotPositiveDefinite) as exc:
            cholesky(sigma)
        assert exc.value.pivot == 2

    @pytest.mark.parametrize("k", [1, 3, 8])
    def test_matches_numpy(self, k):
        rng = np.random.default_rng(k)
        for _ in range(20):
            A = rng.normal(size=(k, k))
            sigma = A @ A.T / k + 0.1 * np.eye(k)
            np.testing.assert_allclose(cholesky(sigma),
                                       np.linalg.cholesky(sigma),
                                       rtol=0, atol=1e-14)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            cholesky(np.array([[1.0, 0.5], [0.2, 1.0]]))


def python_cholesky(sigma):
    """The documented factor order in Python floats: column j is sigma[i][j]
    minus the sum over p < j of L[i][p] * L[j][p], accumulated from 0.0."""
    k = len(sigma)
    L = [[0.0] * k for _ in range(k)]
    for j in range(k):
        for i in range(j, k):
            acc = 0.0
            for p in range(j):
                acc += L[i][p] * L[j][p]
            entry = sigma[i][j] - acc
            if i > j:
                L[i][j] = entry / L[j][j]
            elif entry > 0.0:
                L[j][j] = math.sqrt(entry)
            else:
                raise NotPositiveDefinite(pivot=j)
    return np.array(L)


def random_spd(rng, k):
    A = rng.normal(size=(k, k)) * rng.lognormal(0.0, 2.0, k)
    return A @ A.T + 1e-6 * np.eye(k)


class TestFixedOrderCholesky:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 12))
    def test_matches_python_float_factor(self, seed, k):
        sigma = random_spd(np.random.default_rng(seed), k)
        expected = python_cholesky(sigma.tolist())
        assert np.array_equal(cholesky(sigma).view(np.uint64),
                              expected.view(np.uint64))

    def test_fixture_factor_matches_python_float_factor(self):
        sigma = cardia_fit().sigma_hat
        assert np.array_equal(cholesky(sigma),
                              python_cholesky(sigma.tolist()))

    @pytest.mark.parametrize("k", [2, 3, 5, 8, 12])
    def test_pivot_matches_dpotrf(self, k):
        rng = np.random.default_rng(100 + k)
        for _ in range(200):
            A = rng.normal(size=(k, k))
            sigma = A @ A.T
            lo, hi = np.linalg.eigvalsh(sigma)[[0, -1]]
            # shifted past the smallest eigenvalue: some leading minor fails
            sigma -= (lo + rng.uniform(0.001, 0.2) * (hi - lo)) * np.eye(k)
            _, info = dpotrf(sigma, lower=1, clean=1)
            assert info > 0
            with pytest.raises(NotPositiveDefinite) as exc:
                cholesky(sigma)
            assert exc.value.pivot == info - 1

    @pytest.mark.parametrize("j", [0, 2, 4])
    def test_nan_diagonal_raises(self, j):
        sigma = np.eye(5)
        sigma[j, j] = np.nan
        with pytest.raises(NotPositiveDefinite) as exc:
            cholesky(sigma)
        assert exc.value.pivot == j

    def test_reads_only_lower_triangle(self):
        rng = np.random.default_rng(7)
        sigma = random_spd(rng, 8)
        upper = np.triu(np.ones((8, 8), dtype=bool), 1)
        nudged = np.where(upper, sigma * (1 + 1e-10 * rng.normal(size=(8, 8))),
                          sigma)
        assert not np.array_equal(nudged, sigma)
        assert np.array_equal(cholesky(nudged), cholesky(sigma))


class TestStandardNormals:
    def test_deterministic_per_index(self):
        a = _normals(123, 7, 8, 5)[0]
        b = _normals(123, 7, 8, 5)[0]
        assert np.array_equal(a, b)

    def test_distinct_indices_differ(self):
        assert not np.array_equal(_normals(123, 0, 1, 5)[0],
                                  _normals(123, 1, 2, 5)[0])

    def test_marginal_distribution(self):
        z = np.concatenate([_normals(9, i, i + 1, 8)[0] for i in range(2000)])
        assert abs(z.mean()) < 4 / np.sqrt(len(z))
        assert abs(z.std() - 1.0) < 0.02

    @pytest.mark.parametrize("k", [1, 4, 5, 8, 9, 13])
    def test_matches_numpy_philox(self, k):
        # draw i's normals are ndtri of numpy's Philox(key=[seed, i]) stream;
        # k > 4 spans several counter blocks
        def reference(seed, i):
            key = np.array([seed % 2 ** 64, i], dtype=np.uint64)
            u = np.random.Generator(np.random.Philox(key=key)).random(k)
            return ndtri(np.maximum(u, 0.5 ** 53))

        rng = np.random.default_rng(k)
        seeds = [0, -1, 2 ** 63, 2 ** 64 - 1, 2 ** 64 + 5,
                 *rng.integers(-2 ** 62, 2 ** 62, 4).tolist(),
                 *(2 ** 63 + s for s in rng.integers(0, 2 ** 62, 2).tolist())]
        for seed in seeds:
            for start in (0, 11, 2 ** 63 - 2, 2 ** 63 + 1):
                chunk = _normals(seed, start, start + 4, k)
                assert chunk.shape == (4, k)
                for j in range(4):
                    ref = reference(seed, start + j)
                    assert np.array_equal(chunk[j], ref)
                    assert np.array_equal(
                        _normals(seed, start + j, start + j + 1, k)[0], ref)

    def test_zero_uniform_maps_to_two_to_the_minus_53(self, monkeypatch):
        # random() can return exactly 0.0, whose normal quantile is -inf
        monkeypatch.setattr(montecarlo, "_philox_uniforms",
                            lambda seed, start, stop, k: np.array([[0.0, 0.5]]))
        z = _normals(5, 0, 1, 2)
        assert z.tolist() == [[-8.209536151601387, 0.0]]
        assert z[0, 0] == ndtri(0.5 ** 53)

    def test_draws_match_one_draw_loop(self):
        fit = cardia_fit()
        L = cholesky(fit.sigma_hat)
        for seed, start, stop in ((4, 0, 37), (-9, 1000, 1013)):
            chunk = _draws(fit.pi_hat, L, seed, start, stop)
            loop = [_draws(fit.pi_hat, L, seed, i, i + 1)[0]
                    for i in range(start, stop)]
            assert np.array_equal(chunk, np.array(loop))


def assert_ndtri_bits(u):
    u = np.asarray(u, dtype=float)
    assert np.array_equal(_ndtri(u).view(np.uint64), ndtri(u).view(np.uint64))


class TestNdtri:
    """_ndtri is cephes ndtri bit for bit, on every uniform Philox can give."""

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.one_of(st.integers(1, 2 ** 53 - 1),
                              st.integers(1, 2 ** 12),
                              st.integers(2 ** 53 - 2 ** 12, 2 ** 53 - 1)),
                    max_size=64),
           st.integers(0, 2 ** 32 - 1))
    def test_matches_scipy_on_philox_grid(self, ms, seed):
        # the drawn m plus 4096 more from the seed: vectorized logs differ
        # from libm's in the last bit on about 1 in 17k grid points
        m = np.concatenate([np.array(ms, dtype=np.int64), np.random.default_rng(
            seed).integers(1, 2 ** 53, 4096)])
        assert_ndtri_bits(m * 0.5 ** 53)

    def test_matches_scipy_at_branch_points(self):
        e2, e32 = math.exp(-2), math.exp(-32)
        points = [0.5 ** 53, 1 - 0.5 ** 53, 0.5]
        for p in (e2, 1 - e2, e32):
            points += [np.nextafter(p, 0.0), p, np.nextafter(p, 1.0)]
        assert_ndtri_bits(points)


class TestSampleParameters:
    def test_zero_covariance_returns_center(self):
        fit = make_fit([1.0, -2.0], np.zeros((2, 2)))
        draws, jitter = sample_parameters(fit, 5, seed=1)
        assert jitter == 0.0
        assert np.array_equal(draws, np.tile([1.0, -2.0], (5, 1)))

    def test_same_seed_identical(self):
        fit = make_fit([0.0, 0.0], np.eye(2))
        a, _ = sample_parameters(fit, 100, seed=77)
        b, _ = sample_parameters(fit, 100, seed=77)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        fit = make_fit([0.0, 0.0], np.eye(2))
        a, _ = sample_parameters(fit, 10, seed=1)
        b, _ = sample_parameters(fit, 10, seed=2)
        assert not np.array_equal(a, b)

    def test_moments_match_inputs(self):
        mu = np.array([1.5, -0.7])
        sigma = np.array([[2.0, -0.6], [-0.6, 0.9]])
        fit = make_fit(mu, sigma)
        n = 10 ** 5
        draws, _ = sample_parameters(fit, n, seed=13)
        sd = np.sqrt(np.diag(sigma))
        assert np.all(np.abs(draws.mean(axis=0) - mu) < 4 * sd / np.sqrt(n))
        cov = np.cov(draws, rowvar=False)
        rel = np.linalg.norm(cov - sigma) / np.linalg.norm(sigma)
        assert rel < 0.05

    def test_non_pd_requires_jitter_opt_in(self):
        sigma = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3, -1
        fit = make_fit([0.0, 0.0], sigma)
        with pytest.raises(NotPositiveDefinite):
            sample_parameters(fit, 3, seed=0)

    def test_jitter_repairs_near_pd(self):
        # barely indefinite: opt-in jitter from the ladder must repair it
        sigma = np.array([[1.0, 1.0], [1.0, 1.0 - 1e-8]])
        fit = make_fit([0.0, 0.0], sigma)
        with pytest.raises(NotPositiveDefinite):
            sample_parameters(fit, 3, seed=0, allow_jitter=False)
        draws, jitter = sample_parameters(fit, 3, seed=0, allow_jitter=True)
        assert jitter in (1e-10, 1e-9, 1e-8, 1e-7, 1e-6)
        assert draws.shape == (3, 2)


class TestJitterLadder:
    def test_without_opt_in_the_error_names_the_first_failing_pivot(self):
        with pytest.raises(NotPositiveDefinite) as e:
            montecarlo._factor_with_jitter(np.diag([1.0, 2.0, -1.0]), False)
        assert e.value.pivot == 2

    def test_exhausted_ladder_raises_pivot_minus_one(self):
        with pytest.raises(NotPositiveDefinite) as e:
            montecarlo._factor_with_jitter(np.diag([1.0, -1.0]), True)
        assert e.value.pivot == -1

    @pytest.mark.parametrize("last, jitter", [
        (2.0, 0.0), (0.0, 1e-10), (-5e-10, 1e-9), (-5e-7, 1e-6)])
    def test_smallest_ladder_entry_that_factors(self, last, jitter):
        sigma = np.diag([1.0, last])
        L, used = montecarlo._factor_with_jitter(sigma, True)
        assert used == jitter
        assert np.array_equal(L, cholesky(sigma + jitter * np.eye(2)))


class TestEffectDistribution:
    def test_single_draw_zero_covariance_is_plug_in(self):
        fit = cardia_fit()
        center_only = make_fit(fit.pi_hat, np.zeros_like(fit.sigma_hat),
                               names=fit.term_names)
        std = StandardizationSet.from_cohort(cardia_cohort())
        dist = effect_distribution(center_only, CARDIA_MODEL, std,
                                   n_draws=1, seed=0)
        t = effect_triple(fit.pi_hat, CARDIA_MODEL, std)
        assert dist.te1[0] == t.te1
        assert dist.te2[0] == t.te2
        assert dist.int_[0] == t.int_

    def test_fixture_te1_int_anticorrelated(self):
        fit = cardia_fit()
        std = StandardizationSet.from_cohort(cardia_cohort())
        dist = effect_distribution(fit, CARDIA_MODEL, std,
                                   n_draws=1000, seed=42)
        r = np.corrcoef(dist.te1, dist.int_)[0, 1]
        assert r < -0.5

    def test_per_draw_oracle_covariate_free(self):
        # every triple must be reproducible by direct four-expit arithmetic
        pi = np.array([-0.5, 0.4, 0.8, -0.3])
        sigma = 0.04 * np.eye(4)
        fit = make_fit(pi, sigma, names=SAT_MODEL.names)
        std = StandardizationSet(rows=np.zeros((3, 1)))
        n = 50
        dist = effect_distribution(fit, SAT_MODEL, std, n_draws=n, seed=5)
        draws, _ = sample_parameters(fit, n, seed=5)
        for i in range(n):
            a, b1, b2, b3 = draws[i]
            r00, r10, r01, r11 = (float(expit_stable(v)) for v in
                                  (a, a + b1, a + b2, a + b1 + b2 + b3))
            assert dist.te1[i] == pytest.approx(r10 - r00, abs=1e-14)
            assert dist.te2[i] == pytest.approx(r01 - r00, abs=1e-14)
            assert dist.int_[i] == pytest.approx(
                (r11 - r01) - (r10 - r00), abs=1e-14)

    @pytest.mark.parametrize("chunk_size", [1, 7, 64, 10 ** 6])
    def test_chunking_invariance(self, chunk_size):
        fit = cardia_fit()
        std = StandardizationSet.from_cohort(cardia_cohort())
        base = effect_distribution(fit, CARDIA_MODEL, std,
                                   n_draws=200, seed=3)
        alt = effect_distribution(fit, CARDIA_MODEL, std, n_draws=200,
                                  seed=3, chunk_size=chunk_size)
        assert np.array_equal(base.te1, alt.te1)
        assert np.array_equal(base.te2, alt.te2)
        assert np.array_equal(base.int_, alt.int_)

    def test_worker_count_invariance(self):
        fit = cardia_fit()
        std = StandardizationSet.from_cohort(cardia_cohort())
        serial = effect_distribution(fit, CARDIA_MODEL, std, n_draws=300,
                                     seed=8, chunk_size=50, workers=1)
        parallel = effect_distribution(fit, CARDIA_MODEL, std, n_draws=300,
                                       seed=8, chunk_size=50, workers=3)
        assert np.array_equal(serial.te1, parallel.te1)
        assert np.array_equal(serial.te2, parallel.te2)
        assert np.array_equal(serial.int_, parallel.int_)

    def test_chunking_invariance_across_kernel_blocks(self):
        # 3000 distinct rows: a kernel block holds 21 draws, so chunks of 100
        # and of CHUNK_ELEMENTS // 3000 = 349 draws hold several blocks and
        # a remainder; one-draw chunks never share a block
        fit, std = cardia_fit(), many_rows_std()
        step = BLOCK_ELEMENTS // len(std.distinct)
        assert 1 < step < 100
        assert 100 % step and (CHUNK_ELEMENTS // len(std.distinct)) % step
        base = effect_distribution(fit, CARDIA_MODEL, std, n_draws=400,
                                   seed=3, chunk_size=1)
        for chunk_size in (100, 10 ** 6):
            alt = effect_distribution(fit, CARDIA_MODEL, std, n_draws=400,
                                      seed=3, chunk_size=chunk_size)
            for which in ("te1", "te2", "int"):
                assert np.array_equal(base.component(which),
                                      alt.component(which))

    def test_worker_count_invariance_across_kernel_blocks(self):
        fit, std = cardia_fit(), many_rows_std()
        serial = effect_distribution(fit, CARDIA_MODEL, std, n_draws=400,
                                     seed=8, workers=1)
        parallel = effect_distribution(fit, CARDIA_MODEL, std, n_draws=400,
                                       seed=8, chunk_size=100, workers=2)
        for which in ("te1", "te2", "int"):
            assert np.array_equal(serial.component(which),
                                  parallel.component(which))

    def test_pool_chunks_carry_distinct_rows_only(self):
        # a pickled chunk's set holds 2 rows, not the 5000 subject rows
        rows = np.repeat([[0.0], [1.0]], 2500, axis=0)
        assert len(pickle.dumps(StandardizationSet(rows))) < rows.nbytes / 20

    def test_chunks_cap_rows_times_draws(self, monkeypatch):
        seen = []
        batch = montecarlo.effect_triples_batch

        def recording(pis, spec, std):
            seen.append((len(pis), len(pis) * len(std.distinct)))
            return batch(pis, spec, std)

        monkeypatch.setattr(montecarlo, "effect_triples_batch", recording)
        fit = make_fit([-0.5, 0.4, 0.8, -0.3], 0.04 * np.eye(4),
                       names=SAT_MODEL.names)
        for rows, n_draws, per_chunk in (
                # all 5000 rows distinct: CHUNK_ELEMENTS // 5000 draws
                (np.random.default_rng(0).normal(size=(5000, 1)), 500, 209),
                # 5000 rows of 2 distinct values: chunk_size (4096) binds
                (np.repeat([[0.0], [1.0]], 2500, axis=0), 5000, 4096)):
            seen.clear()
            effect_distribution(fit, SAT_MODEL, StandardizationSet(rows),
                                n_draws=n_draws, seed=1)
            draws = [d for d, _ in seen]
            assert sum(draws) == n_draws
            assert draws[:-1] == [per_chunk] * (len(draws) - 1)
            assert max(e for _, e in seen) <= CHUNK_ELEMENTS

    @pytest.mark.parametrize("workers, cpus, processes", [
        (10 ** 6, 3, 3),      # capped by the CPU count
        (10 ** 6, 64, 4),     # capped by the number of chunks
        (2, 64, 2),
        (3, None, None),      # unknown CPU count: one process, no pool
        (1, 64, None),
    ])
    def test_pool_size_capped(self, monkeypatch, workers, cpus, processes):
        started = []

        class SerialPool:
            """Records max_workers and maps in this process: starts none."""

            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            SerialPool)
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: cpus)
        fit = cardia_fit()
        std = StandardizationSet.from_cohort(cardia_cohort())
        dist = effect_distribution(fit, CARDIA_MODEL, std, n_draws=200,
                                   seed=8, chunk_size=50, workers=workers)
        serial = effect_distribution(fit, CARDIA_MODEL, std, n_draws=200,
                                     seed=8, chunk_size=50)
        assert started[:1] == ([] if processes is None else [processes])
        assert np.array_equal(dist.int_, serial.int_)

    def test_mean_stability_across_seeds(self):
        fit = cardia_fit()
        std = StandardizationSet.from_cohort(cardia_cohort())
        n = 10 ** 4
        d1 = effect_distribution(fit, CARDIA_MODEL, std, n_draws=n, seed=101)
        d2 = effect_distribution(fit, CARDIA_MODEL, std, n_draws=n, seed=202)
        for w in ("te1", "te2", "int"):
            a, b = d1.component(w), d2.component(w)
            tol = 3 * (a.std() + b.std()) / np.sqrt(n)
            assert abs(a.mean() - b.mean()) < tol

    def test_bounds_hold_for_every_draw(self):
        fit = cardia_fit()
        std = StandardizationSet.from_cohort(cardia_cohort())
        dist = effect_distribution(fit, CARDIA_MODEL, std,
                                   n_draws=2000, seed=6)
        assert np.all(np.abs(dist.te1) <= 1.0)
        assert np.all(np.abs(dist.te2) <= 1.0)
        assert np.all(np.abs(dist.int_) <= 2.0)


@pytest.mark.parametrize("workers", [1, 2])
def test_non_finite_draw_effects_raise(workers):
    """Finite at pi_hat, but draws of x1 and z1*x1 overflow to opposite
    infinities on a covariate of 1.7e308."""
    spec = ModelSpec.parse("z1,z2,x1,z1*x1")
    fit = FitResult(pi_hat=np.zeros(5),
                    sigma_hat=np.diag([1e-4, 1e-4, 1e-4, 100.0, 100.0]),
                    loglik=0.0, iterations=1, converged=True,
                    term_names=spec.names)
    std = StandardizationSet(rows=np.array([[1.7e308]]))
    effect_triple(fit.pi_hat, spec, std)
    with np.errstate(all="ignore"), pytest.raises(NonFiniteEffects):
        effect_distribution(fit, spec, std, n_draws=100, seed=1,
                            chunk_size=25, workers=workers)


class TestSerialization:
    def _small_dist(self):
        fit = cardia_fit()
        std = StandardizationSet.from_cohort(cardia_cohort())
        return effect_distribution(fit, CARDIA_MODEL, std, n_draws=5, seed=2)

    def test_csv_layout(self):
        dist = self._small_dist()
        lines = dist.to_csv().strip().split("\n")
        assert lines[0] == "draw_index,te1,te2,int"
        assert len(lines) == 6
        first = lines[1].split(",")
        assert first[0] == "0"
        assert float(first[1]) == dist.te1[0]  # repr round-trips exactly

    def test_csv_is_per_element_repr(self, monkeypatch):
        n = 2 * CSV_BLOCK + 3
        rng = np.random.default_rng(6)
        te1, te2, int_ = rng.normal(scale=0.3, size=(3, n))
        te1[[0, CSV_BLOCK, n - 1]] = (-0.0, 5e-324, 0.1 + 0.2)
        te2[CSV_BLOCK - 1:CSV_BLOCK + 1] = (0.0, -5e-324)
        # forms other than 0.ddd, on both sides of a block boundary
        other = (1e-5, -9.999999999999999e-05, 1.0, -1.5, 1e16, math.nan,
                 math.inf)
        int_[CSV_BLOCK - 7:CSV_BLOCK + 7] = other + other
        te2[CSV_BLOCK + 2:CSV_BLOCK + 9] = other

        def mismatches(dist):
            # (line count - expected, first mismatched lines): pytest's diff
            # of two long texts that differ on many lines takes minutes
            got = dist.to_csv().split("\n")
            want = ["draw_index,te1,te2,int"] + [
                f"{i},{float(dist.te1[i])!r},{float(dist.te2[i])!r},"
                f"{float(dist.int_[i])!r}" for i in range(dist.n_draws)] + [""]
            return (len(got) - len(want),
                    [(g, w) for g, w in zip(got, want) if g != w][:3])

        dist = EffectDistribution(te1=te1, te2=te2, int_=int_, n_draws=n,
                                  seed=0, source_hash="x")
        assert mismatches(dist) == (0, [])
        part = [v[CSV_BLOCK - 9:CSV_BLOCK + 11] for v in (te1, te2, int_)]
        short = EffectDistribution(*part, n_draws=20, seed=0, source_hash="x")
        text = short.to_csv()
        for block in (1, 7):
            monkeypatch.setattr(dataset, "CSV_BLOCK", block)
            assert short.to_csv() == text and mismatches(short) == (0, [])
        monkeypatch.undo()
        # float edges with int counts, and a cohort with no value in 0.ddd form
        counts, edges = np.histogram(te1, bins=30)
        assert histogram_csv(te1) == "bin_lo,bin_hi,count\n" + "".join(
            f"{lo!r},{hi!r},{c!r}\n"
            for lo, hi, c in zip(edges[:-1].tolist(), edges[1:].tolist(),
                                 counts.tolist()))
        cohort = cardia_cohort()
        rows = zip(cohort.y.tolist(), cohort.z1.tolist(), cohort.z2.tolist(),
                   cohort.x.tolist())
        assert dataset.cohort_csv(cohort, CARDIA_SCHEMA) == (
            "survival,large_hospital,advanced_stage,age,male,urban\n"
            + "".join(",".join(map(repr, [y, z1, z2, *x])) + "\n"
                      for y, z1, z2, x in rows))

    def test_length_invariant(self):
        with pytest.raises(ValueError):
            EffectDistribution(te1=np.zeros(3), te2=np.zeros(3),
                               int_=np.zeros(2), n_draws=3, seed=0,
                               source_hash="x")


@given(st.integers(0, 2 ** 63 - 1), st.integers(0, 10 ** 6))
@settings(max_examples=50, deadline=None)
def test_substream_determinism_property(seed, index):
    a = _normals(seed, index, index + 1, 4)[0]
    b = _normals(seed, index, index + 1, 4)[0]
    assert np.array_equal(a, b)
    assert np.all(np.isfinite(a))
