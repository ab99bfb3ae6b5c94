import logging

import numpy as np
import pytest

from helpers import (
    dense_newton_solve,
    fd_alpha_gradient,
    random_posterior_instance,
)
from ldcc.data import Task, TaskCollection, generate_synthetic
from ldcc.errors import NumericError
from ldcc.inference import VariationalState, run_estep
from ldcc.learning import (
    accumulate_stats,
    alpha_gradient,
    alpha_newton_direction,
    alpha_newton_work,
    learning_rate,
    local_mstep,
    online_update,
    train,
    write_training_log,
)
from ldcc.model import ThemeModel, TrainConfig


def planted_model():
    mu = np.array([[-4.0, 0.0], [4.0, 0.0], [0.0, 4.0]])
    sigma = np.stack([np.eye(2)] * 3)
    alpha = np.array([[5.0, 1.0, 1.0], [1.0, 1.0, 5.0]])
    delta = np.array([0.5, 0.5])
    return ThemeModel(mu, sigma, alpha, delta)


def posterior_states(num_states, seed, C=3, N=4, K=3, L=2):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(num_states):
        _, state = random_posterior_instance(rng, C=C, N=N, K=K, L=L)
        out.append(state)
    return out


class TestAccumulateStats:
    def test_quadruple_loop_oracle(self):
        rng = np.random.default_rng(0)
        task, state = random_posterior_instance(rng, C=2, N=3, K=2, D=2)
        stats = accumulate_stats([task], [state])
        x, _ = task.stacked()
        r = np.concatenate(state.r)
        K, D = 2, 2
        count = np.zeros(K)
        wsum = np.zeros((K, D))
        scatter = np.zeros((K, D, D))
        for n in range(x.shape[0]):
            for k in range(K):
                count[k] += r[n, k]
                for i in range(D):
                    wsum[k, i] += r[n, k] * x[n, i]
                    for j in range(D):
                        scatter[k, i, j] += r[n, k] * x[n, i] * x[n, j]
        assert np.allclose(stats.count, count, atol=1e-12)
        assert np.allclose(stats.weighted_sum, wsum, atol=1e-12)
        assert np.allclose(stats.scatter, scatter, atol=1e-12)

    def test_additive_over_tasks(self):
        rng = np.random.default_rng(1)
        pairs = [random_posterior_instance(rng, C=2, N=3) for _ in range(3)]
        tasks = [p[0] for p in pairs]
        states = [p[1] for p in pairs]
        whole = accumulate_stats(tasks, states)
        parts = [accumulate_stats([t], [s]) for t, s in pairs]
        assert np.allclose(whole.count, sum(p.count for p in parts), atol=1e-12)
        assert np.allclose(
            whole.weighted_sum, sum(p.weighted_sum for p in parts), atol=1e-12
        )
        assert np.allclose(whole.scatter, sum(p.scatter for p in parts), atol=1e-12)

    def test_mass_conservation(self):
        rng = np.random.default_rng(2)
        pairs = [random_posterior_instance(rng, C=2, N=5) for _ in range(4)]
        stats = accumulate_stats([p[0] for p in pairs], [p[1] for p in pairs])
        total = sum(p[0].total_samples for p in pairs)
        assert stats.count.sum() == pytest.approx(total, rel=1e-12)

    def test_length_mismatch(self):
        rng = np.random.default_rng(3)
        task, state = random_posterior_instance(rng)
        with pytest.raises(ValueError):
            accumulate_stats([task], [state, state])
        with pytest.raises(ValueError):
            accumulate_stats([], [])


class TestLocalMstep:
    def test_hand_instance_single_theme(self):
        x = np.array([[0.0, 0.0], [2.0, 2.0]], dtype=np.float32)
        task = Task("t", [x])
        r = [np.ones((2, 1))]
        state = VariationalState(r, np.ones((1, 1)), np.ones((1, 1)), np.ones(1))
        stats = accumulate_stats([task], [state])
        means, covs, active = local_mstep(stats, jitter=1e-6)
        assert np.allclose(means[0], [1.0, 1.0])
        # population covariance of the two points is [[1,1],[1,1]]
        assert np.allclose(covs[0], np.ones((2, 2)) + 1e-6 * np.eye(2), atol=1e-12)
        assert active.tolist() == [True]

    def test_single_point_collapses_to_jitter(self):
        task = Task("t", [np.array([[3.0, -1.0]], dtype=np.float32)])
        state = VariationalState(
            [np.ones((1, 1))], np.ones((1, 1)), np.ones((1, 1)), np.ones(1)
        )
        stats = accumulate_stats([task], [state])
        means, covs, _ = local_mstep(stats, jitter=1e-4)
        assert np.allclose(means[0], [3.0, -1.0])
        assert np.allclose(covs[0], 1e-4 * np.eye(2), atol=1e-10)

    def test_one_hot_matches_subset_moments(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(40, 2)).astype(np.float32)
        labels = rng.integers(0, 2, size=40)
        r = np.zeros((40, 2))
        r[np.arange(40), labels] = 1.0
        task = Task("t", [x])
        state = VariationalState([r], np.ones((1, 2)), np.ones((1, 1)), np.ones(1))
        stats = accumulate_stats([task], [state])
        means, covs, _ = local_mstep(stats, jitter=0.0)
        x64 = x.astype(np.float64)
        for k in range(2):
            sub = x64[labels == k]
            assert np.allclose(means[k], sub.mean(axis=0), atol=1e-10)
            assert np.allclose(covs[k], np.cov(sub.T, bias=True), atol=1e-10)

    def test_inactive_theme_placeholders(self):
        task = Task("t", [np.array([[1.0, 1.0]], dtype=np.float32)])
        r = [np.array([[1.0, 0.0]])]
        state = VariationalState(r, np.ones((1, 2)), np.ones((1, 1)), np.ones(1))
        stats = accumulate_stats([task], [state])
        means, covs, active = local_mstep(stats, jitter=1e-6)
        assert active.tolist() == [True, False]
        assert np.allclose(means[1], 0.0)
        assert np.allclose(covs[1], np.eye(2))

    def test_covariances_symmetric(self):
        rng = np.random.default_rng(5)
        pairs = [random_posterior_instance(rng, C=3, N=6) for _ in range(3)]
        stats = accumulate_stats([p[0] for p in pairs], [p[1] for p in pairs])
        _, covs, _ = local_mstep(stats, jitter=1e-6)
        assert np.allclose(covs, np.transpose(covs, (0, 2, 1)), atol=1e-15)


class TestAlphaGradient:
    def test_finite_difference_oracle(self):
        rng = np.random.default_rng(6)
        for trial in range(3):
            states = posterior_states(3, seed=trial + 10)
            alpha = rng.uniform(0.5, 3.0, size=(2, 3))
            grad = alpha_gradient(states, alpha)
            ref = fd_alpha_gradient(states, alpha)
            scale = np.maximum(np.abs(ref), 1.0)
            assert np.max(np.abs(grad - ref) / scale) < 1e-5

    def test_massless_row_zero_direction(self):
        states = posterior_states(2, seed=20, L=2)
        for s in states:
            s.eta = np.column_stack([np.ones(s.eta.shape[0]), np.zeros(s.eta.shape[0])])
        alpha = np.full((2, 3), 1.5)
        work = alpha_newton_work(states, alpha)
        assert work.active_rows.tolist() == [True, False]
        direction = alpha_newton_direction(work)
        assert np.allclose(direction[1], 0.0)

    def test_single_column_objective_is_flat(self):
        # With one image theme the Dirichlet over it is degenerate: the
        # objective does not depend on alpha at all, so the gradient is zero
        # and the rank-one correction is exactly singular.
        states = posterior_states(2, seed=21, K=1, L=2)
        alpha = np.array([[2.0], [0.7]])
        grad = alpha_gradient(states, alpha)
        assert np.allclose(grad, 0.0, atol=1e-12)
        work = alpha_newton_work(states, alpha)
        assert np.allclose(work.b, 0.0)
        assert np.allclose(alpha_newton_direction(work), 0.0, atol=1e-12)


class TestNewtonDirection:
    def test_dense_solve_agreement(self):
        rng = np.random.default_rng(7)
        for trial in range(5):
            L, K = int(rng.integers(1, 5)), int(rng.integers(2, 5))
            states = posterior_states(3, seed=trial + 40, K=K, L=L)
            alpha = rng.uniform(0.4, 4.0, size=(L, K))
            work = alpha_newton_work(states, alpha)
            got = alpha_newton_direction(work)
            ref = dense_newton_solve(work)
            assert np.max(np.abs(got - ref)) < 1e-9

    def test_quadratic_signs(self):
        states = posterior_states(3, seed=60)
        alpha = np.full((2, 3), 1.2)
        work = alpha_newton_work(states, alpha)
        assert np.all(work.q_diag < 0)
        assert np.all(work.u > 0)

    def test_zero_gradient_zero_direction(self):
        states = posterior_states(2, seed=61)
        alpha = np.full((2, 3), 2.0)
        work = alpha_newton_work(states, alpha)
        work.gradient[:] = 0.0
        work.b[:] = 0.0
        assert np.allclose(alpha_newton_direction(work), 0.0)

    def test_batch_scale_invariance(self):
        states = posterior_states(2, seed=62)
        alpha = np.array([[0.8, 1.7, 2.2], [1.1, 0.9, 3.0]])
        one = alpha_newton_direction(alpha_newton_work(states, alpha))
        tripled = alpha_newton_direction(alpha_newton_work(states * 3, alpha))
        assert np.allclose(one, tripled, atol=1e-12)


class TestLearningRate:
    def test_values(self):
        assert learning_rate(0.0, 1.0, 1) == pytest.approx(1.0)
        assert learning_rate(1.0, 1.0, 1) == pytest.approx(0.5)
        assert learning_rate(100.0, 0.6, 900) == pytest.approx(1000.0**-0.6, rel=1e-15)

    def test_decreasing_in_batch(self):
        rates = [learning_rate(100.0, 0.51, b) for b in range(1, 50)]
        assert all(a > b for a, b in zip(rates, rates[1:]))
        assert all(0 < r <= 1 for r in rates)

    def test_validation(self):
        with pytest.raises(ValueError):
            learning_rate(100.0, 0.5, 1)
        with pytest.raises(ValueError):
            learning_rate(100.0, 1.1, 1)
        with pytest.raises(ValueError):
            learning_rate(-1.0, 0.51, 1)
        with pytest.raises(ValueError):
            learning_rate(100.0, 0.51, 0)


class TestOnlineUpdate:
    def model(self):
        return ThemeModel(
            np.array([[0.0, 0.0], [4.0, 4.0]]),
            np.stack([np.eye(2)] * 2),
            np.array([[2.0, 2.0]]),
            np.ones(1),
        )

    def test_full_step_replaces(self):
        m = self.model()
        means = np.array([[1.0, 1.0], [5.0, 5.0]])
        covs = np.stack([2.0 * np.eye(2)] * 2)
        direction = np.array([[0.5, -0.5]])
        out = online_update(m, means, covs, direction, rho=1.0)
        assert np.allclose(out.mu, means)
        assert np.allclose(out.sigma, covs)
        assert np.allclose(out.alpha, [[1.5, 2.5]])

    def test_zero_step_is_identity(self):
        m = self.model()
        out = online_update(
            m, np.zeros((2, 2)), np.stack([np.eye(2)] * 2), np.ones((1, 2)), rho=0.0
        )
        assert np.allclose(out.mu, m.mu)
        assert np.allclose(out.sigma, m.sigma)
        assert np.allclose(out.alpha, m.alpha)

    def test_midpoint_blend(self):
        m = self.model()
        means = np.array([[2.0, 2.0], [6.0, 6.0]])
        covs = np.stack([3.0 * np.eye(2)] * 2)
        out = online_update(m, means, covs, np.zeros((1, 2)), rho=0.5)
        assert np.allclose(out.mu, [[1.0, 1.0], [5.0, 5.0]])
        assert np.allclose(out.sigma, np.stack([2.0 * np.eye(2)] * 2))

    def test_alpha_damping_halves_until_positive(self):
        m = ThemeModel(
            np.zeros((1, 1)), np.ones((1, 1, 1)), np.array([[1.0]]), np.ones(1)
        )
        out = online_update(
            m, np.zeros((1, 1)), np.ones((1, 1, 1)), np.array([[10.0]]), rho=1.0
        )
        # 10 -> 5 -> 2.5 -> 1.25 -> 0.625 is the first step keeping 1 - s > 0
        assert out.alpha[0, 0] == pytest.approx(0.375, abs=1e-15)

    def test_alpha_floor_after_max_halvings(self):
        m = ThemeModel(
            np.zeros((1, 1)), np.ones((1, 1, 1)), np.array([[1.0]]), np.ones(1)
        )
        out = online_update(
            m, np.zeros((1, 1)), np.ones((1, 1, 1)), np.array([[1e30]]), rho=1.0
        )
        assert out.alpha[0, 0] == 1e-6

    def test_alpha_damping_limits_warn_once(self, caplog):
        m = ThemeModel(
            np.zeros((1, 1)), np.ones((1, 1, 1)), np.array([[1.0], [1.0], [8.0]]), np.ones(3)
        )
        # row 0 uses all halvings, row 1 lands below the floor, row 2 is fine
        direction = np.array([[1e30], [1.0 - 1e-7], [4.0]])
        with caplog.at_level(logging.WARNING, logger="ldcc.learning"):
            out = online_update(m, np.zeros((1, 1)), np.ones((1, 1, 1)), direction, rho=1.0)
        assert out.alpha[:, 0].tolist() == [1e-6, 1e-6, 4.0]
        messages = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        assert messages == [
            "alpha rows [0] used all 20 step halvings; entries floored at 1e-06 per row: {0: 1, 1: 1}"
        ]
        # two halvings keep rows 0 and 1 positive: no warning
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="ldcc.learning"):
            online_update(m, np.zeros((1, 1)), np.ones((1, 1, 1)), np.full((3, 1), 2.0), rho=1.0)
        assert not caplog.records

    def test_rows_damped_independently(self):
        m = ThemeModel(
            np.zeros((1, 1)),
            np.ones((1, 1, 1)),
            np.array([[1.0], [8.0]]),
            np.ones(2),
        )
        out = online_update(
            m,
            np.zeros((1, 1)),
            np.ones((1, 1, 1)),
            np.array([[10.0], [4.0]]),
            rho=1.0,
        )
        # second row never needed damping
        assert out.alpha[1, 0] == pytest.approx(4.0)
        assert out.alpha[0, 0] == pytest.approx(0.375)

    def test_inactive_keeps_previous(self, caplog):
        m = self.model()
        means = np.array([[9.0, 9.0], [0.0, 0.0]])
        covs = np.stack([5.0 * np.eye(2), np.eye(2)])
        with caplog.at_level(logging.WARNING, logger="ldcc.learning"):
            out = online_update(
                m,
                means,
                covs,
                np.zeros((1, 2)),
                rho=1.0,
                active=np.array([True, False]),
            )
        assert np.allclose(out.mu[0], [9.0, 9.0])
        assert np.allclose(out.mu[1], m.mu[1])
        assert np.allclose(out.sigma[1], m.sigma[1])
        assert any("no responsibility mass" in r.message for r in caplog.records)

    def test_blend_preserves_positive_definiteness(self):
        rng = np.random.default_rng(8)
        m = self.model()
        for _ in range(20):
            base = rng.normal(size=(2, 2, 2))
            covs = np.einsum("kij,klj->kil", base, base) + 1e-6 * np.eye(2)
            out = online_update(m, rng.normal(size=(2, 2)), covs, np.zeros((1, 2)), rho=0.3)
            np.linalg.cholesky(out.sigma)

    def test_invalid_result_raises_numeric(self):
        m = self.model()
        covs = np.stack([np.eye(2)] * 2)
        covs[0, 0, 0] = np.nan
        with pytest.raises(NumericError):
            online_update(m, np.zeros((2, 2)), covs, np.zeros((1, 2)), rho=1.0)

    def test_rho_range(self):
        m = self.model()
        with pytest.raises(ValueError):
            online_update(m, m.mu, m.sigma, np.zeros((1, 2)), rho=1.5)


class TestTrain:
    def collection(self, num_tasks=12, seed=0):
        coll, _ = generate_synthetic(planted_model(), num_tasks, 3, 6, seed=seed)
        return coll

    def test_deterministic(self):
        coll = self.collection()
        cfg = TrainConfig(seed=5, max_batches=4, batch_size=6)
        m1, log1 = train(coll, 2, 3, cfg)
        m2, log2 = train(coll, 2, 3, cfg)
        assert m1 == m2
        assert log1 == log2

    def test_threads_do_not_change_result(self):
        coll = self.collection()
        cfg = TrainConfig(seed=5, max_batches=3, batch_size=6)
        m1, log1 = train(coll, 2, 3, cfg, threads=1)
        m2, log2 = train(coll, 2, 3, cfg, threads=4)
        assert m1 == m2
        assert log1 == log2

    def test_estep_blocks_do_not_change_result(self, monkeypatch):
        import ldcc.inference as inference_module

        coll = self.collection()
        cfg = TrainConfig(seed=5, max_batches=3, batch_size=6)
        m1, log1 = train(coll, 2, 3, cfg)
        # Blocks of one or two tasks instead of the whole batch.
        monkeypatch.setattr(inference_module, "_BLOCK_ROWS", 20)
        m2, log2 = train(coll, 2, 3, cfg)
        assert m1 == m2
        assert log1 == log2

    def test_log_rows_and_rates(self):
        coll = self.collection()
        cfg = TrainConfig(seed=2, max_batches=5, batch_size=4)
        model, rows = train(coll, 2, 3, cfg)
        assert [r.batch for r in rows] == [1, 2, 3, 4, 5]
        for r in rows:
            assert r.rho == pytest.approx(learning_rate(cfg.tau0, cfg.tau1, r.batch))
            assert np.isfinite(r.mean_elbo)
            assert 1 <= r.estep_iters_mean <= cfg.max_e_iters
            assert r.alpha_min <= r.alpha_max

    def test_model_stays_valid(self):
        coll = self.collection()
        cfg = TrainConfig(seed=3, max_batches=8, batch_size=5)
        model, _ = train(coll, 2, 3, cfg)
        assert np.all(model.alpha >= 1e-6)
        assert np.isfinite(model.mu).all()
        assert np.isfinite(model.sigma).all()
        np.linalg.cholesky(model.sigma)

    def test_single_theme_degenerate(self):
        coll = self.collection(num_tasks=6)
        cfg = TrainConfig(seed=1, max_batches=3, batch_size=6)
        model, rows = train(coll, 1, 1, cfg)
        assert model.K == 1 and model.L == 1
        assert np.isfinite(rows[-1].mean_elbo)

    def test_warns_once_per_batch_about_capped_esteps(self, caplog):
        coll = self.collection()
        cfg = TrainConfig(seed=5, max_batches=3, batch_size=6, max_e_iters=1, e_tol=1e-12)
        with caplog.at_level(logging.WARNING, logger="ldcc"):
            _, rows = train(coll, 2, 3, cfg)
        messages = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        assert len(messages) == len(rows) == 3
        for batch, message in enumerate(messages, start=1):
            assert message.startswith(f"batch {batch}: 6 of 6 E-steps stopped at max_e_iters=1;")
            assert message.endswith(" gamma entries clamped")

    def test_no_warning_when_esteps_converge(self, caplog):
        coll = self.collection()
        cfg = TrainConfig(seed=5, max_batches=2, batch_size=6)
        with caplog.at_level(logging.WARNING, logger="ldcc"):
            train(coll, 2, 3, cfg)
        assert not [r for r in caplog.records if r.levelno >= logging.WARNING]

    def test_rejects_nonpositive_threads(self):
        with pytest.raises(ValueError):
            train(self.collection(), 2, 3, TrainConfig(max_batches=1), threads=0)

    def test_batches_cycle_through_collection(self):
        # batch_size below the collection size must still visit every task
        # within ceil(M / B) batches; check via a wrapper counting E-steps.
        coll = self.collection(num_tasks=7)
        seen = []
        import ldcc.learning as learning_module

        original = learning_module.estep_batch

        def spy(tasks, model, config):
            seen.extend(task.id for task in tasks)
            return original(tasks, model, config)

        learning_module.estep_batch = spy
        try:
            cfg = TrainConfig(seed=4, max_batches=7, batch_size=2)
            train(coll, 2, 2, cfg)
        finally:
            learning_module.estep_batch = original
        assert set(seen) == set(coll.ids)
        assert len(seen) == 14


class TestTrainingLog:
    def test_round_trip_text(self, tmp_path):
        from ldcc.learning import TrainLogRow

        rows = [
            TrainLogRow(1, 0.5, -123.456789012345, 1.0, 2.0, 3.5),
            TrainLogRow(2, 0.25, -120.0, 0.9, 2.1, 4.0),
        ]
        path = tmp_path / "log.csv"
        write_training_log(path, rows)
        lines = path.read_text().splitlines()
        assert lines[0] == "batch,rho,mean_elbo,alpha_min,alpha_max,estep_iters_mean"
        assert lines[1].split(",")[0] == "1"
        assert float(lines[1].split(",")[2]) == -123.456789012345
        assert len(lines) == 3

    def test_bytes_with_numpy_floats(self, tmp_path):
        from ldcc.learning import TrainLogRow

        x = np.float64(0.1) + np.float64(0.2)
        path = tmp_path / "log.csv"
        write_training_log(path, [TrainLogRow(1, x, -x, x, np.float64(2.0), np.float64(3.5))])
        assert path.read_bytes() == (
            b"batch,rho,mean_elbo,alpha_min,alpha_max,estep_iters_mean\n"
            b"1,0.30000000000000004,-0.30000000000000004,0.30000000000000004,2.0,3.5\n"
        )
