import logging
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    VariationalState,
    bound_gap,
    continued_estep_states,
    damped_alpha_step,
    dense_newton_solve,
    estep_states,
    fd_alpha_gradient,
    random_posterior_instance,
    stack_states,
)
from ldcc.data import Task, TaskCollection, generate_synthetic, stack_samples
from ldcc.errors import DataError, NumericError
import ldcc.inference as inference
from ldcc.inference import estep_blocks
import ldcc.learning as learning
from ldcc.learning import (
    LocalThemeStats,
    TrainLogRow,
    accumulate_stats,
    alpha_newton_direction,
    alpha_newton_work,
    local_mstep,
    online_update,
    train,
    write_training_log,
)
from ldcc.model import ThemeModel, TrainConfig, init_model, save_model
from ldcc.streams import shuffle_stream


def planted_model():
    mu = np.array([[-4.0, 0.0], [4.0, 0.0], [0.0, 4.0]])
    sigma = np.stack([np.eye(2)] * 3)
    alpha = np.array([[5.0, 1.0, 1.0], [1.0, 1.0, 5.0]])
    delta = np.array([0.5, 0.5])
    return ThemeModel(mu, sigma, alpha, delta)


def posterior_states(num_states, seed, C=3, N=4, K=3, L=2):
    """Random states of random tasks, and their stacked `Posterior`."""
    rng = np.random.default_rng(seed)
    tasks, states = zip(*(random_posterior_instance(rng, C=C, N=N, K=K, L=L)
                          for _ in range(num_states)))
    return stack_states(tasks, states), list(states)


class TestAccumulateStats:
    def test_quadruple_loop_oracle(self):
        rng = np.random.default_rng(0)
        task, state = random_posterior_instance(rng, C=2, N=3, K=2, D=2)
        stats = accumulate_stats(stack_states([task], [state]))
        x = stack_samples([task])
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
        whole = accumulate_stats(stack_states(tasks, states))
        parts = [accumulate_stats(stack_states([t], [s])) for t, s in pairs]
        assert np.allclose(whole.count, sum(p.count for p in parts), atol=1e-12)
        assert np.allclose(
            whole.weighted_sum, sum(p.weighted_sum for p in parts), atol=1e-12
        )
        assert np.allclose(whole.scatter, sum(p.scatter for p in parts), atol=1e-12)

    def test_rejects_mixed_dimensions(self):
        # A posterior's samples are stacked by `stack_samples`, which refuses
        # tasks of mixed dimensions.
        tasks = [Task("flat", [np.zeros((3, 2))]), Task("wide", [np.ones((2, 3))])]
        states = [VariationalState([np.full((n, 2), 0.5)], np.ones((1, 2)), np.ones((1, 1)),
                                   np.ones(1)) for n in (3, 2)]
        with pytest.raises(DataError, match=r"dimension: \[2, 3\]"):
            accumulate_stats(stack_states(tasks, states))

    def test_mass_conservation(self):
        rng = np.random.default_rng(2)
        pairs = [random_posterior_instance(rng, C=2, N=5) for _ in range(4)]
        stats = accumulate_stats(stack_states(*zip(*pairs)))
        total = sum(p[0].total_samples for p in pairs)
        assert stats.count.sum() == pytest.approx(total, rel=1e-12)

    def test_stats_of_other_theme_counts_raise(self):
        # Stats of another number of image themes fail to broadcast before
        # any entry changes.
        rng = np.random.default_rng(5)
        tasks = [Task(name, [rng.normal(size=(n, 2)) for _ in range(5)])
                 for name, n in (("a", 16), ("b", 12))]
        (part,) = estep_blocks(tasks, planted_model(), TrainConfig(seed=1))
        for themes in (1, 2, 4):
            stats = LocalThemeStats(
                np.zeros(themes), np.zeros((themes, 2)), np.zeros((themes, 2, 2)))
            with pytest.raises(ValueError):
                accumulate_stats(part, stats)
            assert not stats.count.any()

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_per_task_loop(self, data):
        # Tasks of 1-4 classes of 1-20 shots, so some tasks pass the 8-row
        # pairwise-summation threshold and some do not.
        K, D = data.draw(st.integers(1, 8)), data.draw(st.integers(1, 8))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        tasks, states = [], []
        for d in range(data.draw(st.integers(1, 12))):
            shots = rng.integers(1, 21, size=rng.integers(1, 5))
            tasks.append(Task(f"t{d}", [
                (3.0 * rng.normal(size=(n, D)) + rng.normal(size=D)).astype(np.float32)
                for n in shots
            ]))
            states.append(VariationalState(
                [rng.dirichlet(np.ones(K), size=n) for n in shots],
                np.ones((shots.size, K)), np.ones((shots.size, 1)), np.ones(1),
            ))
        got = accumulate_stats(stack_states(tasks, states))
        want, scale = per_task_loop_stats(tasks, states)
        for name in ("count", "weighted_sum", "scatter"):
            error = np.abs(getattr(got, name) - getattr(want, name))
            assert (error <= 1e-12 * getattr(scale, name)).all(), name
        # The same batch fed in two parts through stats= gives the same bits.
        cut = data.draw(st.integers(0, len(tasks) - 1))
        parts = accumulate_stats(stack_states(tasks[:cut], states[:cut])) if cut else None
        parts = accumulate_stats(stack_states(tasks[cut:], states[cut:]), parts)
        assert stats_bytes(parts) == stats_bytes(got)

    def test_block_size_does_not_change_bytes(self, monkeypatch):
        # 60 tasks of 5 x 16 shots (4800 rows) are 60 blocks of 12 rows, 2
        # of 4096 and 1 of 16384.
        tasks = list(generate_synthetic(planted_model(), 60, 5, 16, seed=8)[0])
        cfg = TrainConfig(seed=2, max_e_iters=30)
        got = []
        for block_rows in (12, 4096, 16384):
            monkeypatch.setattr(inference, "_BLOCK_ROWS", block_rows)
            stats = None
            for part in estep_blocks(tasks, planted_model(), cfg):
                stats = accumulate_stats(part, stats)
            got.append(stats_bytes(stats))
        assert all(g == got[0] for g in got)


def per_task_loop_stats(tasks, states):
    """The reference: one `r.T @ x` and one einsum per task, summed in task
    order; and the same sums over |x|, which scale the error bound."""
    K, D = states[0].r[0].shape[1], tasks[0].dimension
    out = []
    for transform in (lambda x: x, np.abs):
        stats = LocalThemeStats(np.zeros(K), np.zeros((K, D)), np.zeros((K, D, D)))
        for task, state in zip(tasks, states):
            x, r = transform(stack_samples([task])), np.concatenate(state.r)
            stats.count += r.sum(axis=0)
            stats.weighted_sum += r.T @ x
            stats.scatter += np.einsum("nk,ni,nj->kij", r, x, x)
        out.append(stats)
    return out


def stats_bytes(stats):
    return stats.count.tobytes() + stats.weighted_sum.tobytes() + stats.scatter.tobytes()


class TestLocalMstep:
    def test_hand_instance_single_theme(self):
        x = np.array([[0.0, 0.0], [2.0, 2.0]], dtype=np.float32)
        task = Task("t", [x])
        r = [np.ones((2, 1))]
        state = VariationalState(r, np.ones((1, 1)), np.ones((1, 1)), np.ones(1))
        stats = accumulate_stats(stack_states([task], [state]))
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
        stats = accumulate_stats(stack_states([task], [state]))
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
        stats = accumulate_stats(stack_states([task], [state]))
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
        stats = accumulate_stats(stack_states([task], [state]))
        assert local_mstep(stats, jitter=1e-6)[2].tolist() == [True, False]

    def test_covariances_symmetric(self):
        rng = np.random.default_rng(5)
        pairs = [random_posterior_instance(rng, C=3, N=6) for _ in range(3)]
        stats = accumulate_stats(stack_states(*zip(*pairs)))
        _, covs, _ = local_mstep(stats, jitter=1e-6)
        assert np.allclose(covs, np.transpose(covs, (0, 2, 1)), atol=1e-15)


class TestAlphaGradient:
    def test_finite_difference_oracle(self):
        rng = np.random.default_rng(6)
        for trial in range(3):
            part, states = posterior_states(3, seed=trial + 10)
            alpha = rng.uniform(0.5, 3.0, size=(2, 3))
            grad = alpha_newton_work([part], alpha).gradient
            ref = fd_alpha_gradient(states, alpha)
            scale = np.maximum(np.abs(ref), 1.0)
            assert np.max(np.abs(grad - ref) / scale) < 1e-5

    def test_massless_row_zero_direction(self):
        part, _ = posterior_states(2, seed=20, L=2)
        part.eta = np.column_stack([np.ones(part.eta.shape[0]), np.zeros(part.eta.shape[0])])
        alpha = np.full((2, 3), 1.5)
        work = alpha_newton_work([part], alpha)
        assert work.active_rows.tolist() == [True, False]
        direction = alpha_newton_direction(work)
        assert np.allclose(direction[1], 0.0)

    def test_single_column_objective_is_flat(self):
        # With one image theme the Dirichlet over it is degenerate: the
        # objective does not depend on alpha at all, so the gradient is zero
        # and the rank-one correction is exactly singular.
        part, _ = posterior_states(2, seed=21, K=1, L=2)
        alpha = np.array([[2.0], [0.7]])
        grad = alpha_newton_work([part], alpha).gradient
        assert np.allclose(grad, 0.0, atol=1e-12)
        work = alpha_newton_work([part], alpha)
        assert np.allclose(work.b, 0.0)
        assert np.allclose(alpha_newton_direction(work), 0.0, atol=1e-12)


class TestNewtonDirection:
    def test_dense_solve_agreement(self):
        rng = np.random.default_rng(7)
        for trial in range(5):
            L, K = int(rng.integers(1, 5)), int(rng.integers(2, 5))
            part, _ = posterior_states(3, seed=trial + 40, K=K, L=L)
            alpha = rng.uniform(0.4, 4.0, size=(L, K))
            work = alpha_newton_work([part], alpha)
            got = alpha_newton_direction(work)
            ref = dense_newton_solve(work)
            assert np.max(np.abs(got - ref)) < 1e-9

    def test_hessian_matches_finite_differences(self):
        # diag(q) + u 11^T must be the Jacobian of the gradient in alpha: the
        # one check of the trigamma that q and u are built from, which
        # dense_newton_solve takes from the same work and cannot catch.
        rng = np.random.default_rng(8)
        step = 1e-5
        for trial in range(5):
            L, K = int(rng.integers(1, 4)), int(rng.integers(2, 5))
            part, _ = posterior_states(3, seed=trial + 70, K=K, L=L)
            alpha = rng.uniform(0.3, 5.0, size=(L, K))
            work = alpha_newton_work([part], alpha)
            for l in range(L):
                fd = np.empty((K, K))
                for j in range(K):
                    hi, lo = alpha.copy(), alpha.copy()
                    hi[l, j] += step
                    lo[l, j] -= step
                    fd[:, j] = (alpha_newton_work([part], hi).gradient[l]
                                - alpha_newton_work([part], lo).gradient[l]) / (2 * step)
                hessian = np.diag(work.q_diag[l]) + work.u[l]
                assert np.max(np.abs(hessian - fd)) <= 1e-5 * np.max(np.abs(fd))

    def test_quadratic_signs(self):
        part, _ = posterior_states(3, seed=60)
        alpha = np.full((2, 3), 1.2)
        work = alpha_newton_work([part], alpha)
        assert np.all(work.q_diag < 0)
        assert np.all(work.u > 0)

    def test_zero_gradient_zero_direction(self):
        part, _ = posterior_states(2, seed=61)
        alpha = np.full((2, 3), 2.0)
        work = alpha_newton_work([part], alpha)
        work.gradient[:] = 0.0
        work.b[:] = 0.0
        assert np.allclose(alpha_newton_direction(work), 0.0)

    def test_batch_scale_invariance(self):
        part, _ = posterior_states(2, seed=62)
        alpha = np.array([[0.8, 1.7, 2.2], [1.1, 0.9, 3.0]])
        one = alpha_newton_direction(alpha_newton_work([part], alpha))
        tripled = alpha_newton_direction(alpha_newton_work([part] * 3, alpha))
        assert np.allclose(one, tripled, atol=1e-12)


class TestLearningRate:
    """train's step size, read from its log rows: rho_b = (tau0 + b)^(-tau1)
    for mini-batches, 1 for whole-collection batches."""

    def rates(self, tau0, tau1, batches):
        coll, _ = generate_synthetic(planted_model(), 4, 2, 3, seed=0)
        cfg = TrainConfig(tau0=tau0, tau1=tau1, max_batches=batches, batch_size=2, max_e_iters=2)
        return [row.rho for row in train(coll, 2, 3, cfg)[1]]

    def test_values(self):
        assert self.rates(0.0, 1.0, 1) == [pytest.approx(1.0)]
        assert self.rates(1.0, 1.0, 1) == [pytest.approx(0.5)]
        assert self.rates(100.0, 0.6, 900)[-1] == pytest.approx(1000.0**-0.6, rel=1e-15)

    def test_decreasing_in_batch(self):
        rates = self.rates(100.0, 0.51, 49)
        assert all(a > b for a, b in zip(rates, rates[1:]))
        assert all(0 < r <= 1 for r in rates)

    def test_whole_collection_takes_full_steps(self):
        coll, _ = generate_synthetic(planted_model(), 4, 2, 3, seed=0)
        cfg = TrainConfig(max_batches=3, batch_size=4, max_e_iters=2)
        assert [row.rho for row in train(coll, 2, 3, cfg)[1]] == [1.0] * 3


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

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_damping_matches_row_oracle(self, data):
        # Every draw holds a row of each kind: one that needs no halving, one
        # that needs 1 to 16, one that uses all 20, and one whose undamped
        # step lands in (0, floor); more rows of random kinds may follow.
        kinds = ["none", "some", "all", "floor"]
        extra = data.draw(st.lists(st.sampled_from(kinds), max_size=4))
        kinds = data.draw(st.permutations(kinds + extra))
        K = data.draw(st.integers(1, 5))
        rho = data.draw(st.floats(0.05, 1.0))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        alpha = rng.uniform(1e-3, 10.0, size=(len(kinds), K))
        # These entries keep alpha - rho * direction >= alpha / 2.
        direction = alpha * rng.uniform(-3.0, 0.5, size=alpha.shape) / rho
        for l, kind in enumerate(kinds):
            k = rng.integers(K)
            if kind == "some":
                # alpha - step / 2**h is exactly 0 or -alpha / 2: h + 1 halvings are needed
                direction[l, k] = rng.uniform(1.0, 10.0) / rho
                h = rng.integers(0, 16)
                alpha[l, k] = rho * direction[l, k] / 2.0**h * rng.choice([1.0, 2.0 / 3.0])
            elif kind == "all":
                direction[l, k] = alpha[l, k] * 2.0 ** rng.uniform(21.0, 100.0) / rho
            elif kind == "floor":
                direction[l, k] = (alpha[l, k] - rng.uniform(1e-12, 9e-7)) / rho

        rows, exhausted, floored = [], [], {}
        for l, kind in enumerate(kinds):
            row, used_all, count = damped_alpha_step(alpha[l], rho * direction[l])
            undamped = np.maximum(alpha[l] - rho * direction[l], 1e-6)
            assert used_all == (kind == "all")
            assert (count > 0) == (kind in ("all", "floor"))
            # (an exhausted row may floor to the undamped row's values)
            assert kind == "all" or np.array_equal(row, undamped) == (kind != "some")
            rows.append(row)
            if used_all:
                exhausted.append(l)
            if count:
                floored[l] = count

        m = ThemeModel(np.zeros((K, 1)), np.ones((K, 1, 1)), alpha, np.ones(len(kinds)))
        with mock.patch.object(learning.logger, "warning") as warn:
            out = online_update(m, m.mu, m.sigma, direction, rho)
        assert out.alpha.tobytes() == np.vstack(rows).tobytes()
        [call] = warn.call_args_list
        assert call.args[0] % call.args[1:] == (
            f"alpha rows {exhausted} used all 20 step halvings; "
            f"entries floored at 1e-06 per row: {floored}"
        )

    @pytest.mark.parametrize("rho", [1.0, 0.3])
    def test_inactive_keeps_previous(self, caplog, rho):
        # An empty theme's mean and covariance come back bit for bit, whatever
        # its rows of the M-step hold; an active theme is blended.
        m = ThemeModel(np.array([[0.1, -0.7], [-1.3, 0.2]]),
                       np.stack([np.eye(2), [[1.3, 0.1], [0.1, 0.2]]]),
                       np.array([[2.0, 2.0]]), np.ones(1))
        means = np.array([[9.0, 9.0], [0.0, 0.0]])
        covs = np.stack([5.0 * np.eye(2), np.eye(2)])
        with caplog.at_level(logging.WARNING, logger="ldcc.learning"):
            out = online_update(
                m,
                means,
                covs,
                np.zeros((1, 2)),
                rho=rho,
                active=np.array([True, False]),
            )
        assert np.array_equal(out.mu[0], (1.0 - rho) * m.mu[0] + rho * means[0])
        assert np.array_equal(out.mu[1], m.mu[1])
        assert np.array_equal(out.sigma[1], m.sigma[1])
        assert [r.message for r in caplog.records] == [
            "themes [1] received no responsibility mass; keeping previous values"
        ]

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

    def test_block_size_does_not_change_bytes(self, monkeypatch, tmp_path):
        # Batches of 110 tasks (8800 rows) span 3 blocks of 4096 rows, 2 of
        # 8192 and 1 of 16384.
        planted = ThemeModel(
            np.array([[0.0, 0.0], [8.0, 0.0], [0.0, 8.0]]), np.stack([np.eye(2)] * 3),
            np.array([[6.0, 1.0, 1.0], [1.0, 1.0, 6.0]]), np.array([0.01, 0.01]),
        )
        coll, _ = generate_synthetic(planted, 150, 5, 16, seed=3)
        cfg = TrainConfig(seed=1, max_batches=3, batch_size=110)
        results = []
        for block_rows in (4096, 8192, 16384):
            monkeypatch.setattr(inference, "_BLOCK_ROWS", block_rows)
            model, rows = train(coll, 2, 3, cfg)
            results.append((artifact_bytes((model, rows), tmp_path), rows))
        assert results[0] == results[1] == results[2]

    def test_log_rows_and_rates(self):
        coll = self.collection()
        cfg = TrainConfig(seed=2, max_batches=5, batch_size=4)
        model, rows = train(coll, 2, 3, cfg)
        assert [r.batch for r in rows] == [1, 2, 3, 4, 5]
        for r in rows:
            assert r.rho == pytest.approx((cfg.tau0 + r.batch) ** -cfg.tau1)
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

    def test_rejects_mixed_dimensions(self):
        tasks = [*self.collection(num_tasks=2), Task("wide", [np.zeros((4, 3))])]
        with pytest.raises(DataError, match=r"dimension: \[2, 3\]"):
            train(tasks, 2, 3, TrainConfig(max_batches=1))

    def test_rejects_empty_task_list(self):
        with pytest.raises(DataError, match="the task list is empty"):
            train([], 2, 3, TrainConfig(max_batches=1))

    def test_batches_cycle_through_collection(self):
        # batch_size below the collection size must still visit every task
        # within ceil(M / B) batches; check via a wrapper counting E-steps.
        coll = self.collection(num_tasks=7)
        seen = []
        import ldcc.learning as learning_module

        original = learning_module._plan_blocks

        def spy(tasks, model):
            seen.extend(task.id for task in tasks)
            return original(tasks, model)

        learning_module._plan_blocks = spy
        try:
            cfg = TrainConfig(seed=4, max_batches=7, batch_size=2)
            train(coll, 2, 2, cfg)
        finally:
            learning_module._plan_blocks = original
        assert set(seen) == set(coll.ids)
        assert len(seen) == 14


def uneven_collection(num_tasks=11, seed=11):
    """Tasks of 1-4 classes with 1-6 shots each, around the planted means."""
    rng = np.random.default_rng(seed)
    mu = planted_model().mu
    tasks = []
    for d in range(num_tasks):
        shots = rng.integers(1, 7, size=rng.integers(1, 5))
        tasks.append(Task(f"u{d}", [
            (mu[rng.integers(3)] + rng.normal(size=(n, 2))).astype(np.float32) for n in shots
        ]))
    return TaskCollection(tasks)


def reference_train(tasks, num_task_themes, num_image_themes, config, delta=0.5):
    """train() composed per task state, batch by batch: each batch's states
    are stacked whole, and each bound is the one the task's E-step gave,
    checked against its `elbo` alone.  When the batch is the whole
    collection, each E-step after the first continues from the task's last
    state, and rho is 1."""
    model = init_model(
        tasks, num_task_themes, num_image_themes, delta, config.seed, jitter=config.jitter
    )
    order = shuffle_stream(config.seed).permutation(len(tasks))
    whole = config.batch_size >= len(tasks)
    rows, cursor, states = [], 0, None
    for b in range(1, config.max_batches + 1):
        batch = []
        for _ in range(min(config.batch_size, len(tasks))):
            batch.append(tasks[int(order[cursor])])
            cursor = (cursor + 1) % len(tasks)
        if whole and states is not None:
            states = continued_estep_states(batch, states, model, config)
        else:
            states = estep_states(batch, model, config)
        for task, state in zip(batch, states):
            assert bound_gap(task, state, model) <= 1e-12
        elbos = [state.bound for state in states]
        part = stack_states(batch, states)
        means, covs, active = local_mstep(accumulate_stats(part), config.jitter)
        direction = alpha_newton_direction(alpha_newton_work([part], model.alpha))
        rho = 1.0 if whole else (config.tau0 + b) ** -config.tau1
        model = online_update(model, means, covs, direction, rho, active=active)
        rows.append(TrainLogRow(
            b, rho, float(np.mean(elbos)), float(model.alpha.min()),
            float(model.alpha.max()), float(np.mean([s.iterations for s in states])),
        ))
    return model, rows


def artifact_bytes(result, tmp_path):
    model, rows = result
    save_model(model, tmp_path / "model.json")
    write_training_log(tmp_path / "log.csv", rows)
    return (tmp_path / "model.json").read_bytes() + (tmp_path / "log.csv").read_bytes()


class TestTrainMatchesReference:
    """train() reads the E-step's stacked blocks and reuses its blocks; the
    result must be the per-state composition's, bit for bit."""

    @pytest.mark.parametrize("max_e_iters", [100, 1])
    def test_bitwise_equal_to_per_state_composition(self, monkeypatch, max_e_iters):
        coll = uneven_collection()
        # Blocks of at most 12 rows: every batch of 7 tasks spans 3 or more
        # blocks, and with 4 batches of 7 out of 11 tasks, tasks recur.
        monkeypatch.setattr(inference, "_BLOCK_ROWS", 12)
        cfg = TrainConfig(seed=6, max_batches=4, batch_size=7, max_e_iters=max_e_iters)
        batch = [coll[int(i)] for i in shuffle_stream(cfg.seed).permutation(len(coll))[:7]]
        assert len(list(inference._blocks(batch))) >= 3
        model, rows = train(coll, 2, 3, cfg)
        want_model, want_rows = reference_train(coll, 2, 3, cfg)
        assert model == want_model
        assert rows == want_rows
        if max_e_iters == 1:
            # Every E-step stops at the cap.  (Gamma cannot clamp here: alpha
            # stays at or above its 1e-6 floor, so every gamma entry is positive.)
            assert all(r.estep_iters_mean == 1.0 for r in rows)

    @pytest.mark.parametrize("max_e_iters", [100, 1])
    def test_whole_collection_batches_build_blocks_once(self, monkeypatch, max_e_iters):
        # batch_size >= M: every batch is the whole collection in one order,
        # so its blocks (3 or more of at most 12 rows) are built once per call.
        coll = uneven_collection()
        monkeypatch.setattr(inference, "_BLOCK_ROWS", 12)
        built = []

        class CountedBlock(inference._Block):
            def __init__(self, tasks):
                built.append(len(tasks))
                super().__init__(tasks)

        monkeypatch.setattr(inference, "_Block", CountedBlock)
        cfg = TrainConfig(seed=6, max_batches=4, batch_size=len(coll) + 3,
                          max_e_iters=max_e_iters)
        model, rows = train(coll, 2, 3, cfg)
        blocks = len(built)
        assert blocks >= 3 and sum(built) == len(coll)
        want_model, want_rows = reference_train(coll, 2, 3, cfg)
        assert len(built) == blocks * (1 + cfg.max_batches)  # the reference builds per batch
        assert model == want_model
        assert rows == want_rows

    def test_tasks_sharing_an_id_match_reference(self):
        # Two tasks in a train list share an id and a sample count but not
        # their class sizes (3+5 against 5+3), in revisiting mini-batches.
        rng = np.random.default_rng(4)
        mu = planted_model().mu
        twins = [Task("twin", [(mu[k] + rng.normal(size=(n, 2))).astype(np.float32)
                               for k, n in zip(ks, split)])
                 for ks, split in (((0, 1), (3, 5)), ((2, 0), (5, 3)))]
        tasks = [*uneven_collection(), *twins]
        cfg = TrainConfig(seed=2, max_batches=5, batch_size=6)
        assert train(tasks, 2, 3, cfg) == reference_train(tasks, 2, 3, cfg)

    def test_plan_does_not_leak_across_calls(self, tmp_path):
        coll = uneven_collection()
        cfg_a = TrainConfig(seed=1, max_batches=3, batch_size=4)
        cfg_b = TrainConfig(seed=2, max_batches=3, batch_size=4)
        alone = artifact_bytes(train(coll, 2, 3, cfg_b), tmp_path)
        model = train(coll, 2, 3, cfg_b)[0]
        before = estep_states(coll, model, cfg_b)
        train(coll, 3, 2, cfg_a)  # another seed, K and L
        assert artifact_bytes(train(coll, 2, 3, cfg_b), tmp_path) == alone
        after = estep_states(coll, model, cfg_b)
        for want, got in zip(before, after):
            for a, b in zip([*want.r, want.gamma, want.eta, want.lam],
                            [*got.r, got.gamma, got.eta, got.lam]):
                assert np.array_equal(a, b)
            assert (want.iterations, want.converged) == (got.iterations, got.converged)


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
