import math
import warnings
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special as sp
from scipy import stats

from helpers import (
    VariationalState,
    bound_gap,
    continued_estep_states,
    dirichlet_expected_log,
    elbo,
    elbo_terms,
    estep_states,
    naive_elbo_terms,
    query_bank,
    query_model,
    softmax_start,
    stack_states,
    task_elbo,
    update_eta,
    update_gamma,
    update_lambda,
    update_r,
    unstack,
)
from ldcc.data import Task, generate_synthetic, stack_samples
from ldcc.errors import DataError, FormatError, NumericError
import ldcc.inference as inference
from ldcc.inference import (
    estep_blocks,
    read_lambda_csv,
    run_estep,
    write_lambda_csv,
)
import ldcc.learning as learning
from ldcc.model import ThemeModel, TrainConfig


def make_model(K=2, D=2, L=2, seed=0):
    rng = np.random.default_rng(seed)
    mu = rng.normal(size=(K, D)) * 2
    base = rng.normal(size=(K, D, D)) * 0.4
    sigma = np.einsum("kij,klj->kil", base, base) + np.eye(D)
    alpha = rng.uniform(0.6, 2.5, size=(L, K))
    delta = rng.uniform(0.4, 1.5, size=L)
    return ThemeModel(mu, sigma, alpha, delta)


def make_task(C=3, N=4, D=2, seed=0, task_id="t"):
    rng = np.random.default_rng(seed)
    return Task(task_id, [rng.normal(size=(N, D)).astype(np.float32) for _ in range(C)])


def random_state(task, model, seed=0):
    rng = np.random.default_rng(seed)
    C, K, L = task.num_classes, model.K, model.L
    r = [rng.dirichlet(np.ones(K), size=n) for n in task.counts]
    gamma = rng.uniform(0.3, 6.0, size=(C, K))
    eta = rng.dirichlet(np.ones(L), size=C)
    lam = rng.uniform(0.3, 5.0, size=L)
    return VariationalState(r, gamma, eta, lam)


class TestDirichletExpectedLog:
    def test_uniform_pair(self):
        assert np.allclose(dirichlet_expected_log(np.array([1.0, 1.0])), [-1.0, -1.0], atol=1e-12)

    def test_two_one(self):
        # psi(2)-psi(3) and psi(1)-psi(3) by the recurrence
        out = dirichlet_expected_log(np.array([2.0, 1.0]))
        assert np.allclose(out, [-0.5, -1.5], atol=1e-12)

    def test_symmetric_rows_equal(self):
        out = dirichlet_expected_log(np.full(5, 3.3))
        assert np.allclose(out, out[0])

    def test_matrix_matches_rows(self):
        rng = np.random.default_rng(0)
        u = rng.uniform(0.2, 7.0, size=(4, 3))
        out = dirichlet_expected_log(u)
        for i in range(4):
            assert np.allclose(out[i], dirichlet_expected_log(u[i]), atol=1e-13)

    def test_scipy_oracle(self):
        rng = np.random.default_rng(1)
        u = rng.uniform(0.1, 9.0, size=6)
        ref = sp.psi(u) - sp.psi(u.sum())
        assert np.allclose(dirichlet_expected_log(u), ref, atol=1e-10)


class TestUpdateR:
    def test_single_theme(self):
        model = make_model(K=1, L=1)
        task = make_task(C=2, N=3)
        state = random_state(task, model)
        out = update_r(task, 0, state, model)
        assert np.allclose(out, 1.0)

    def test_identical_themes_symmetric_gamma(self):
        mu = np.zeros((2, 2))
        sigma = np.stack([np.eye(2)] * 2)
        model = ThemeModel(mu, sigma, np.ones((1, 2)), np.ones(1))
        task = make_task(C=1, N=4)
        state = random_state(task, model)
        state.gamma[0] = [2.0, 2.0]
        out = update_r(task, 0, state, model)
        assert np.allclose(out, 0.5, atol=1e-12)

    def test_scalar_instance(self):
        # D=1, means -1 and +1, unit variances, flat gamma: the posterior on
        # x=1 is the logistic of the log-density gap, sigmoid(2).
        model = ThemeModel(
            np.array([[-1.0], [1.0]]),
            np.ones((2, 1, 1)),
            np.ones((1, 2)),
            np.ones(1),
        )
        task = Task("t", [np.array([[0.0], [1.0]], dtype=np.float32)])
        state = VariationalState(
            [np.full((2, 2), 0.5)], np.ones((1, 2)), np.ones((1, 1)), np.ones(1)
        )
        out = update_r(task, 0, state, model)
        assert np.allclose(out[0], [0.5, 0.5], atol=1e-12)
        s = 1.0 / (1.0 + math.exp(-2.0))
        assert out[1, 1] == pytest.approx(s, abs=1e-12)
        assert out[1, 0] == pytest.approx(1.0 - s, abs=1e-12)

    def test_rows_normalized(self):
        model = make_model(K=4)
        task = make_task(C=2, N=6)
        state = random_state(task, model)
        out = update_r(task, 1, state, model)
        assert np.allclose(out.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(out >= 0)

    def test_precomputed_log_pdfs(self):
        model = make_model()
        task = make_task(C=1, N=5)
        state = random_state(task, model)
        table = model.log_pdfs(task.classes[0].astype(np.float64)).T
        a = update_r(task, 0, state, model)
        b = update_r(task, 0, state, model, log_pdfs=table)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_degenerate_row_raises(self, bad):
        # One row of NaN or all -inf logits cannot be normalized.
        model = make_model(K=3)
        task = make_task(C=1, N=4)
        state = random_state(task, model)
        table = model.log_pdfs(task.classes[0].astype(np.float64)).T
        table[2] = bad
        with pytest.raises(NumericError):
            update_r(task, 0, state, model, log_pdfs=table)


    def test_positive_inf_logit_raises(self):
        # exp(+inf - +inf) is NaN: the whole row would come back NaN with
        # only a RuntimeWarning, so a +inf logit is rejected like NaN.
        model = make_model(K=3)
        task = make_task(C=1, N=4)
        state = random_state(task, model)
        table = model.log_pdfs(task.classes[0].astype(np.float64)).T
        table[2, 1] = np.inf
        with np.errstate(all="raise"), pytest.raises(NumericError, match=r"\+inf logits"):
            update_r(task, 0, state, model, log_pdfs=table)
        logits = np.array([[0.0, np.inf, 1.0], [0.0, 1.0, 2.0]]).T
        with np.errstate(all="raise"), pytest.raises(NumericError):
            inference._softmax(logits, axis=0)


class TestResponsibilityKernel:
    """The sweep's r = normalize(exp(E[ln theta] - class max) * exp(log_pdfs -
    sample max)) against the log-space softmax of `update_r`."""

    def kernel(self, expected_log_theta, log_pdfs, counts, keep=None):
        # log_pdfs (K, rows) of a block of one task per class; with keep,
        # only those tasks' rows, as in a sweep after others stopped.
        seg = inference._Segments.of([[n] for n in counts])
        dens = inference._densities(log_pdfs)[:-1]
        if keep is not None:
            seg, keep_classes, keep_rows = seg.subset(keep)
            expected_log_theta = expected_log_theta[:, keep_classes]
            dens = dens[:, keep_rows]
        return inference._responsibilities(expected_log_theta, dens, seg, log_pdfs)[0]

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_log_space_oracle(self, data):
        K = data.draw(st.integers(1, 8))
        spread = data.draw(st.floats(0.0, 2000.0))
        gamma_low = data.draw(st.floats(1e-8, 1.0))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        counts = rng.integers(1, 7, size=rng.integers(1, 5))
        model = ThemeModel(np.zeros((K, 2)), np.stack([np.eye(2)] * K), np.ones((1, K)),
                           np.ones(1))
        task = Task("k", [np.zeros((n, 2), dtype=np.float32) for n in counts])
        # Entries log-uniform down to gamma_low; one entry per class is at
        # least 1, so E[ln theta] of the others reaches -1e8 while the
        # log-space oracle keeps full precision on the rest.
        gamma = np.exp(rng.uniform(np.log(gamma_low), np.log(10.0), size=(counts.size, K)))
        gamma[np.arange(counts.size), rng.integers(K, size=counts.size)] += 1.0
        state = VariationalState([np.empty((n, K)) for n in counts], gamma,
                                 np.ones((counts.size, 1)), np.ones(1))
        log_pdfs = rng.uniform(-spread, 0.0, size=(int(counts.sum()), K)) - rng.uniform(0, 50)
        starts = np.cumsum(counts) - counts
        want = np.concatenate([
            update_r(task, c, state, model, log_pdfs=log_pdfs[a:a + n])
            for c, (a, n) in enumerate(zip(starts, counts))
        ])
        got = self.kernel(dirichlet_expected_log(gamma).T.copy(), log_pdfs.T.copy(), counts).T
        assert np.allclose(got, want, rtol=0, atol=1e-12)
        assert np.allclose(got.sum(axis=1), 1.0, rtol=0, atol=1e-12)

    def test_underflowing_row_falls_back_to_log_space(self):
        # Row 1 of task 1: each theme is 800 nats down in one factor, so
        # both products underflow to 0, yet the logits tie at -800.  Task 0
        # stops first, so the row is found through the live segments.
        expected_log_theta = np.array([[-1.0, -800.0], [-2.0, 0.0]])
        log_pdfs = np.array([[-3.0, -5.0, 0.0, -1.0], [-4.0, -1.0, -800.0, -2.0]])
        counts = [2, 2]
        logits = expected_log_theta.repeat(counts, axis=1) + log_pdfs
        want = inference._softmax(logits.copy(), axis=0)
        assert want[:, 2] == pytest.approx([0.5, 0.5], abs=1e-15)
        for keep in (None, np.array([False, True])):
            got = self.kernel(expected_log_theta, log_pdfs, counts, keep)
            cols = slice(None) if keep is None else slice(2, 4)
            assert np.allclose(got, want[:, cols], rtol=0, atol=1e-12)
        # The products of block row 2 are exactly zero.
        weights = np.exp(expected_log_theta[:, 1] - expected_log_theta[:, 1].max())
        assert not (weights * inference._densities(log_pdfs)[:-1][:, 2]).any()

    @pytest.mark.parametrize("where", ["log_pdfs", "theta"])
    @pytest.mark.parametrize("bad, message", [
        (np.nan, "NaN logits"), (np.inf, r"\+inf logits"), (-np.inf, "all -inf logits"),
    ])
    def test_degenerate_input_raises(self, where, bad, message):
        expected_log_theta = np.array([[-1.0, -0.5], [-2.0, -0.2], [-0.3, -3.0]])
        log_pdfs = np.array([[-3.0, -5.0, -2.0], [-4.0, -1.0, -8.0], [-1.0, -2.0, -3.0]])
        if where == "log_pdfs":
            log_pdfs[:, 1] = -np.inf if bad == -np.inf else log_pdfs[:, 1]
            log_pdfs[1, 1] = bad
        else:
            expected_log_theta[:, 1] = -np.inf if bad == -np.inf else expected_log_theta[:, 1]
            expected_log_theta[2, 1] = bad
        # An infinite E[ln theta] (the sweep's are finite, as gamma >= 1e-8)
        # makes inf - inf in the class shift, a NaN the log-space path rejects.
        with np.errstate(invalid="ignore"), pytest.raises(NumericError, match=message):
            self.kernel(expected_log_theta, log_pdfs, [1, 2])

    def test_mixed_minus_inf_row_raises(self):
        # No row or class is degenerate alone, but row 0's logits are all
        # -inf: the products underflow and the log-space path rejects it.
        expected_log_theta = np.array([[0.0], [-np.inf]])
        log_pdfs = np.array([[-np.inf, -1.0], [0.0, -2.0]])
        with pytest.raises(NumericError, match="all -inf logits"):
            self.kernel(expected_log_theta, log_pdfs, [2])


class TestUpdateGamma:
    def test_all_ones_alpha(self):
        model = make_model(K=3, L=2)
        task = make_task(C=1, N=5)
        state = random_state(task, model, seed=3)
        out = update_gamma(state, 0, np.ones((2, 3)))
        assert np.allclose(out, 1.0 + state.r[0].sum(axis=0), atol=1e-12)

    def test_hand_summed_instance(self):
        r = np.array([[0.2, 0.8], [0.5, 0.5], [0.9, 0.1]])
        state = VariationalState(
            [r], np.ones((1, 2)), np.array([[1.0, 0.0]]), np.ones(2)
        )
        alpha = np.array([[2.0, 3.0], [5.0, 7.0]])
        out = update_gamma(state, 0, alpha)
        assert np.allclose(out, [3.6, 4.4], atol=1e-12)

    def test_uniform_r_one_hot_eta(self):
        N, K = 8, 4
        r = np.full((N, K), 1.0 / K)
        eta = np.array([[0.0, 1.0]])
        alpha = np.array([[1.5, 2.5, 0.7, 1.0], [3.0, 0.9, 2.0, 1.1]])
        state = VariationalState([r], np.ones((1, K)), eta, np.ones(2))
        out = update_gamma(state, 0, alpha)
        assert np.allclose(out, 1.0 + N / K + alpha[1] - 1.0, atol=1e-12)

    def test_floating_point_floor(self):
        # In exact arithmetic gamma stays positive; a zero responsibility
        # column plus an alpha below float resolution rounds it to zero, which
        # must be clamped and counted.
        r = np.array([[1.0, 0.0]])
        eta = np.array([[1.0]])
        alpha = np.array([[1.0, 1e-18]])
        state = VariationalState([r], np.ones((1, 2)), eta, np.ones(1))
        out = update_gamma(state, 0, alpha)
        assert out[1] == 1e-8
        assert state.gamma_clamps == 1
        assert out[0] == pytest.approx(2.0)


class TestUpdateEta:
    def test_single_task_theme(self):
        model = make_model(L=1)
        task = make_task()
        state = random_state(task, model)
        assert np.allclose(update_eta(state, 0, model), [1.0])

    def test_identical_rows_symmetric_lambda(self):
        alpha = np.tile(np.array([[1.3, 2.1]]), (3, 1))
        model = ThemeModel(
            np.zeros((2, 2)), np.stack([np.eye(2)] * 2), alpha, np.ones(3)
        )
        task = make_task()
        state = random_state(task, model)
        state.lam = np.full(3, 2.0)
        out = update_eta(state, 0, model)
        assert np.allclose(out, 1.0 / 3.0, atol=1e-12)

    def test_direct_exponent_evaluation(self):
        model = make_model(K=2, L=2, seed=5)
        task = make_task()
        state = random_state(task, model, seed=6)
        out = update_eta(state, 1, model)
        # independent evaluation with scipy
        elog_theta = sp.psi(state.gamma[1]) - sp.psi(state.gamma[1].sum())
        elog_phi = sp.psi(state.lam) - sp.psi(state.lam.sum())
        logits = np.empty(2)
        for l in range(2):
            ln_beta = np.sum(sp.gammaln(model.alpha[l])) - sp.gammaln(model.alpha[l].sum())
            logits[l] = elog_phi[l] - ln_beta + (model.alpha[l] - 1.0) @ elog_theta
        ref = np.exp(logits - logits.max())
        ref /= ref.sum()
        assert np.allclose(out, ref, atol=1e-12)
        assert out.sum() == pytest.approx(1.0, abs=1e-9)


class TestUpdateLambda:
    def test_symmetric_uniform(self):
        eta = np.full((5, 4), 0.25)
        state = VariationalState([np.ones((1, 1))] * 5, np.ones((5, 1)), eta, np.ones(4))
        out = update_lambda(state, np.full(4, 0.5))
        assert np.allclose(out, 1.75, atol=1e-12)

    def test_single_theme(self):
        eta = np.ones((3, 1))
        state = VariationalState([np.ones((1, 1))] * 3, np.ones((3, 1)), eta, np.ones(1))
        assert np.allclose(update_lambda(state, np.array([0.7])), [3.7])

    def test_hand_summed_pair(self):
        eta = np.array([[0.3, 0.7], [0.6, 0.4]])
        state = VariationalState([np.ones((1, 1))] * 2, np.ones((2, 1)), eta, np.ones(2))
        out = update_lambda(state, np.array([0.5, 0.5]))
        assert np.allclose(out, [1.4, 1.6], atol=1e-12)


def assert_same_bits(got, want):
    for a, b in zip(got, want, strict=True):
        assert a.shape == b.shape and a.flags.c_contiguous and a.tobytes() == b.tobytes()


class TestSoftmaxStart:
    @settings(max_examples=60, deadline=None)
    @given(
        K=st.integers(1, 9), L=st.integers(1, 9), block_rows=st.integers(1, 40),
        seed=st.integers(0, 99),
        splits=st.lists(st.lists(st.integers(1, 9), min_size=1, max_size=4),
                        min_size=1, max_size=8),
    )
    def test_block_starts_match_per_task_oracle(self, K, L, block_rows, seed, splits):
        # A collection cut at _BLOCK_ROWS: the start each block's E-step
        # uses is its tasks' per-task oracle starts joined by class, bit for
        # bit.  One-sample tasks and one-task blocks are drawn too, and K of
        # 8 and more, where numpy sums a lone column pairwise.
        model = make_model(K=K, L=L, seed=seed)
        rng = np.random.default_rng(seed)
        tasks = [Task(f"t{d}", [(3.0 * rng.normal(size=(n, 2))).astype(np.float32)
                                for n in counts])
                 for d, counts in enumerate(splits)]
        starts, start = [], inference._start

        def spy(block, dens, num_task_themes):
            starts.append((block.tasks, start(block, dens, num_task_themes)))
            return starts[-1][1]

        with patch.object(inference, "_BLOCK_ROWS", block_rows), \
                patch.object(inference, "_start", spy):
            list(estep_blocks(tasks, model, TrainConfig(max_e_iters=1)))
        assert [task for run, _ in starts for task in run] == tasks
        if len(tasks) > 1 and block_rows < sum(task.total_samples for task in tasks):
            assert len(starts) > 1
        for run, got in starts:
            oracle = [softmax_start(task, model) for task in run]
            assert_same_bits(got, [np.concatenate(part, axis=1) for part in zip(*oracle)])


class TestRunEstep:
    def test_degenerate_single_themes(self):
        model = ThemeModel(
            np.zeros((1, 2)), np.stack([np.eye(2)]), np.ones((1, 1)), np.array([0.5])
        )
        task = make_task(C=3, N=4)
        (state,) = estep_states([task], model, TrainConfig())
        assert state.converged
        assert state.iterations == 1
        for block in state.r:
            assert np.allclose(block, 1.0)
        assert np.allclose(state.eta, 1.0)
        assert np.allclose(state.gamma[:, 0], 1.0 + np.asarray(task.counts))
        assert np.allclose(state.lam, [0.5 + 3])

    def test_deterministic(self):
        model = make_model()
        task = make_task(C=2, N=5, task_id="det")
        cfg = TrainConfig(seed=9)
        (a,) = estep_states([task], model, cfg)
        (b,) = estep_states([task], model, cfg)
        assert all(np.array_equal(x, y) for x, y in zip(a.r, b.r))
        assert np.array_equal(a.gamma, b.gamma)
        assert np.array_equal(a.eta, b.eta)
        assert np.array_equal(a.lam, b.lam)
        assert a.iterations == b.iterations

    def test_seed_does_not_change_lambda(self):
        # The E-step starts from the model's densities, so the seed, which
        # drives only generation, the model init and the batch order, does
        # not reach it.
        model = make_model()
        task = make_task(C=2, N=5, task_id="det")
        (a,) = estep_states([task], model, TrainConfig(seed=9))
        (b,) = estep_states([task], model, TrainConfig(seed=10))
        assert a.iterations > 1 and a.lam.tobytes() == b.lam.tobytes()

    def test_rows_stay_normalized(self):
        model = make_model(K=3, L=2)
        task = make_task(C=3, N=6, task_id="norm")
        (state,) = estep_states([task], model, TrainConfig())
        for block in state.r:
            assert np.allclose(block.sum(axis=1), 1.0, atol=1e-9)
        assert np.allclose(state.eta.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(state.gamma > 0)
        assert np.all(state.lam > 0)

    def test_iteration_cap_and_flag(self):
        model = make_model()
        task = make_task(task_id="cap")
        state = run_estep(task, model, TrainConfig(max_e_iters=1, e_tol=1e-15))
        assert state.iterations == 1
        assert not state.converged

    def test_dimension_mismatch(self):
        model = make_model(D=3)
        task = make_task(D=2)
        with pytest.raises(DataError):
            run_estep(task, model, TrainConfig())

    def test_matches_per_class_update_composition(self):
        # One vectorized sweep must equal composing the per-class updates in
        # the documented order (r, then gamma, then eta, then lambda), from
        # each sample's softmax of its log-densities and uniform eta.
        model = make_model(K=3, L=2, seed=2)
        task = make_task(C=3, N=5, task_id="sweep-equivalence")
        cfg = TrainConfig(seed=4, max_e_iters=1, e_tol=1e-15)
        (got,) = estep_states([task], model, cfg)

        log_pdfs = model.log_pdfs(stack_samples([task])).T
        r_start = np.exp(log_pdfs - log_pdfs.max(axis=1)[:, None])
        r_start /= r_start.sum(axis=1)[:, None]
        eta = np.full((task.num_classes, model.L), 1.0 / model.L)
        offsets = np.concatenate([[0], np.cumsum(task.counts)])
        r = [r_start[offsets[c] : offsets[c + 1]] for c in range(task.num_classes)]
        state = VariationalState(r, np.empty((task.num_classes, model.K)), eta, np.empty(model.L))
        for c in range(task.num_classes):
            state.gamma[c] = update_gamma(state, c, model.alpha)
        state.lam = update_lambda(state, model.delta)

        for c in range(task.num_classes):
            state.r[c] = update_r(task, c, state, model)
        new_gamma = np.stack(
            [update_gamma(state, c, model.alpha) for c in range(task.num_classes)]
        )
        state.gamma = new_gamma
        state.eta = np.stack(
            [update_eta(state, c, model) for c in range(task.num_classes)]
        )
        state.lam = update_lambda(state, model.delta)

        for a, b in zip(got.r, state.r):
            assert np.allclose(a, b, atol=1e-12)
        assert np.allclose(got.gamma, state.gamma, atol=1e-12)
        assert np.allclose(got.eta, state.eta, atol=1e-12)
        assert np.allclose(got.lam, state.lam, atol=1e-12)


class TestEstepBatch:
    """A mixed batch must give every task the state it reaches alone."""

    # At max_e_iters=7 (one SQUAREM cycle, then plain sweeps) two tasks
    # (ambig, mix) stop at the cap, near converges at sweep 4 and top and
    # top3 at sweep 6, so the capped case does not rest on one task whose
    # gamma entries cancel to about zero and clamp chaotically.
    config = TrainConfig(seed=3, e_tol=1e-3, max_e_iters=7)

    def model(self):
        # The third theme sits far from most samples and has alpha entries
        # below float resolution, so its gamma entries round to zero and are
        # clamped in tasks that give it no responsibility.
        return ThemeModel(
            np.array([[0.0, 0.0], [6.0, 0.0], [0.0, 60.0]]),
            np.stack([np.eye(2)] * 3),
            np.array([[3.0, 0.8, 1e-18], [0.7, 2.5, 1e-18]]),
            np.array([0.5, 0.5]),
        )

    def tasks(self):
        rng = np.random.default_rng(5)

        def task(task_id, centers, shots):
            return Task(task_id, [
                (np.asarray(c, dtype=float) + rng.normal(size=(n, 2))).astype(np.float32)
                for c, n in zip(centers, shots)
            ])

        return [
            task("top", [[0, 60], [0, 60]], [3, 5]),
            task("top3", [[0, 60], [0, 60], [0, 60]], [4, 1, 6]),
            task("ambig", [[3, 0], [3, 0], [3, 0]], [4, 9, 2]),
            task("near", [[0, 0], [0, 0], [0, 0], [6, 0]], [3, 7, 2, 5]),
            task("mix", [[0, 0], [6, 0], [3, 0], [0, 60], [6, 0]], [2, 2, 6, 3, 4]),
        ]

    def assert_same(self, got, want):
        assert len(got.r) == len(want.r)
        for a, b in zip(got.r, want.r):
            assert np.allclose(a, b, rtol=0, atol=1e-12)
        assert np.allclose(got.gamma, want.gamma, rtol=0, atol=1e-12)
        assert np.allclose(got.eta, want.eta, rtol=0, atol=1e-12)
        assert np.allclose(got.lam, want.lam, rtol=0, atol=1e-12)
        assert got.iterations == want.iterations
        assert got.converged == want.converged
        assert got.gamma_clamps == want.gamma_clamps
        assert got.bound == want.bound

    def test_matches_batches_of_one(self, monkeypatch):
        model, tasks, cfg = self.model(), self.tasks(), self.config
        alone = [estep_states([task], model, cfg)[0] for task in tasks]
        # The batch covers the cases a task can end in.
        cap = cfg.max_e_iters
        assert any(s.converged and s.iterations <= 6 for s in alone)
        assert any(not s.converged and s.iterations == cap for s in alone)
        assert any(s.gamma_clamps > 0 for s in alone)
        assert any(s.gamma_clamps == 0 for s in alone)

        runs = [(tasks, estep_states(tasks, model, cfg))]
        runs.append((tasks[::-1], estep_states(tasks[::-1], model, cfg)))
        runs.append((tasks, estep_states(iter(tasks), model, cfg)))  # read once
        for block_rows in (12, 20):
            # Blocks of one task and blocks of several; a task larger than
            # the block is a block of its own.
            monkeypatch.setattr(inference, "_BLOCK_ROWS", block_rows)
            runs.append((tasks, estep_states(tasks, model, cfg)))
        for batch, states in runs:
            by_id = {task.id: state for task, state in zip(batch, states)}
            for task, want in zip(tasks, alone):
                self.assert_same(by_id[task.id], want)
            # elbo of each block, against elbo per task.
            bounds = np.concatenate([elbo(part, model) for part in estep_blocks(batch, model, cfg)])
            for task, state, bound in zip(batch, states, bounds, strict=True):
                assert bound == pytest.approx(task_elbo(task, state, model), rel=1e-12, abs=1e-12)

    def test_solved_block_continues_from_its_own_posterior(self, monkeypatch):
        # A solved block keeps its last posterior's r class sums and eta as
        # its start, so solving it again is the oracle's continued E-step,
        # bit for bit, for capped, converged and clamped tasks alike.
        model, tasks, cfg = self.model(), self.tasks(), self.config
        monkeypatch.setattr(inference, "_BLOCK_ROWS", 20)
        blocks = list(inference._plan_blocks(tasks, model))
        assert len(blocks) >= 3 and all(block.start is None for block in blocks)
        solved = []
        for block in blocks:
            part = inference._estep_block(block, model, cfg)
            want = np.add.reduceat(part.r, part.seg.class_starts, axis=1), part.eta.T.copy()
            assert_same_bits(block.start, want)
            solved += unstack(part)
        again = [state for block in blocks
                 for state in unstack(inference._estep_block(block, model, cfg))]
        want = continued_estep_states(tasks, solved, model, cfg)
        assert [s.iterations for s in again] != [s.iterations for s in solved]
        for got, expected in zip(again, want, strict=True):
            assert_same_bits([*got.r, got.gamma, got.eta, got.lam], [*expected.r, expected.gamma,
                                                                     expected.eta, expected.lam])
            assert (got.iterations, got.converged, got.gamma_clamps) == (
                expected.iterations, expected.converged, expected.gamma_clamps)

    @pytest.mark.parametrize("K, L", [(1, 1), (1, 3), (6, 1)])
    def test_edge_shapes_match_batches_of_one(self, K, L):
        # Single-theme axes, a one-sample class and a one-class task in one
        # mixed batch; states come back row-major and C-ordered.  run_estep
        # keeps the batch of one's lambda and its counters as scalars,
        # which int() and bool() take without a DeprecationWarning.
        model = make_model(K=K, L=L, D=2, seed=K + 10 * L)
        rng = np.random.default_rng(K + 10 * L)

        def task(task_id, shots):
            return Task(task_id, [rng.normal(size=(n, 2)).astype(np.float32) for n in shots])

        tasks = [task("single", [6]), task("shot1", [3, 1, 5]), task("wide", [1, 4, 2, 7])]
        for cfg in (TrainConfig(seed=3, e_tol=1e-3, max_e_iters=4), self.config):
            alone = [estep_states([t], model, cfg)[0] for t in tasks]
            states = estep_states(tasks, model, cfg)
            for t, got, want in zip(tasks, states, alone):
                self.assert_same(got, want)
                assert [b.shape for b in got.r] == [(n, K) for n in t.counts]
                assert got.gamma.shape == (t.num_classes, K)
                assert got.eta.shape == (t.num_classes, L)
                assert got.lam.shape == (L,)
                for array in (*got.r, got.gamma, got.eta, got.lam):
                    assert array.flags.c_contiguous
                one = run_estep(t, model, cfg)
                assert one.lam.dtype == np.float64 and one.lam.flags.c_contiguous
                assert one.lam.shape == (L,) and one.lam.tobytes() == want.lam.tobytes()
                with warnings.catch_warnings():
                    warnings.simplefilter("error", DeprecationWarning)
                    counters = int(one.iterations), bool(one.converged), int(one.gamma_clamps)
                assert counters == (want.iterations, want.converged, want.gamma_clamps)

    def test_query_recipe_matches_batch_of_one(self):
        # The query path (L=4, K=6, D=8, tasks of 5 x 16): run_estep keeps the
        # batch of one's lambda bytes and counters, and a result's r, read
        # only after later queries ran, has the bytes built when it came back.
        model = query_model()
        cfg = TrainConfig(seed=0)
        kept = []
        for task in generate_synthetic(model, 40, 5, 16, seed=1)[0]:
            (part,) = estep_blocks([task], model, cfg)
            eager = inference._responsibilities(*part._r_inputs, part.seg, part.log_pdfs)[0]
            kept.append((part, eager))
            one = run_estep(task, model, cfg)
            assert one.lam.tobytes() == part.lam[0].tobytes()
            assert (one.iterations, one.converged, one.gamma_clamps) == (
                part.iterations[0], part.converged[0], part.gamma_clamps[0])
        assert len({int(part.iterations[0]) for part, _ in kept}) > 5
        for part, eager in kept:
            assert part.r.tobytes() == eager.tobytes()

    @pytest.mark.parametrize("K, L, D", [(3, 2, 2), (4, 3, 4), (6, 4, 8)])
    def test_one_sample_task_keeps_bytes(self, K, L, D):
        # A task of one sample is one row alone; its state must be the bytes
        # it gets among other tasks' rows.
        model = make_model(K=K, L=L, D=D, seed=K)
        tasks = list(generate_synthetic(model, 6, 5, 16, seed=K)[0])
        rng = np.random.default_rng(K)
        for i in range(4):
            tasks.insert(2 * i, Task(f"one_{i}", [rng.normal(size=(1, D)).astype(np.float32) * 3]))
        for cfg in (TrainConfig(seed=4, max_e_iters=20), TrainConfig(seed=5, max_e_iters=3)):
            states = estep_states(tasks, model, cfg)
            for task, got in zip(tasks, states):
                if task.total_samples != 1:
                    continue
                (want,) = estep_states([task], model, cfg)
                for a, b in zip([*got.r, got.gamma, got.eta, got.lam],
                                [*want.r, want.gamma, want.eta, want.lam], strict=True):
                    assert a.shape == b.shape and a.tobytes() == b.tobytes()
                assert (got.iterations, got.converged, got.gamma_clamps) == (
                    want.iterations, want.converged, want.gamma_clamps)

    @pytest.mark.parametrize("K, L, D", [(3, 2, 2), (4, 3, 4), (6, 4, 8)])
    def test_block_size_is_bit_invariant(self, monkeypatch, K, L, D):
        # The benchmark workloads' shapes (5 classes of 16 shots); 110 tasks
        # are 8800 rows, so 4096- and 8192-row blocks both split the batch.
        # At 10 sweeps (two SQUAREM cycles, then plain sweeps) each shape
        # has capped and converged tasks: 40, 26 and 70 capped.
        model = make_model(K=K, L=L, D=D, seed=K)
        tasks = list(generate_synthetic(model, 110, 5, 16, seed=K)[0])
        cfg = TrainConfig(seed=4, max_e_iters=10)
        alone = [estep_states([task], model, cfg)[0] for task in tasks]
        assert any(s.converged for s in alone) and not all(s.converged for s in alone)
        for block_rows in (12, 4096, 8192, 2**20):
            monkeypatch.setattr(inference, "_BLOCK_ROWS", block_rows)
            for got, want in zip(estep_states(tasks, model, cfg), alone, strict=True):
                for a, b in zip([*got.r, got.gamma, got.eta, got.lam],
                                [*want.r, want.gamma, want.eta, want.lam], strict=True):
                    assert a.shape == b.shape and a.tobytes() == b.tobytes()
                assert (got.iterations, got.converged, got.gamma_clamps) == (
                    want.iterations, want.converged, want.gamma_clamps)

    def test_dimension_checked_before_any_block(self, monkeypatch):
        # The last task has the wrong dimension; with blocks of 12 rows the
        # other tasks span several blocks, and none of them may be solved.
        tasks = [*self.tasks(), make_task(C=2, N=3, D=3, task_id="wide")]
        calls = []
        monkeypatch.setattr(inference, "_BLOCK_ROWS", 12)
        monkeypatch.setattr(inference, "_estep_block", lambda *args: calls.append(args))
        with pytest.raises(DataError, match="'wide' has dimension 3, model expects 2"):
            list(estep_blocks(tasks, self.model(), self.config))
        assert calls == []
        assert len(list(inference._blocks(tasks))) >= 3


class TestSweepBound:
    """A sweep's `Posterior.bound`, read from its normalizers, is the tests'
    term-by-term `elbo`."""

    @settings(max_examples=60, deadline=None)
    @given(K=st.integers(1, 9), L=st.integers(1, 9), clamping=st.booleans(), data=st.data())
    def test_matches_elbo(self, K, L, clamping, data):
        # Random blocks of tasks with 1-3 classes of 1-6 samples and a
        # one-sample task, cold-started and continued, at 1, 7 and 100
        # sweeps.  With `TestEstepBatch`'s model gamma clamps, and a task
        # continued from all its samples on theme 0 clamps its theme 2,
        # whose E[ln theta] of about -1e8 underflows the products of its
        # sample at (0, 60) and sends it to the log-space path.  The nine
        # terms cancel to about 1e8 there, so the gap is scaled by them.
        if clamping:
            model, K, L = TestEstepBatch().model(), 3, 2
            max_e_iters = data.draw(st.sampled_from([1, 7]))
        else:
            rng = np.random.default_rng([K, L])
            model = ThemeModel(4.0 * rng.standard_normal((K, 2)), np.stack([np.eye(2)] * K),
                               rng.uniform(0.5, 2.0, (L, K)), np.full(L, 0.5))
            max_e_iters = data.draw(st.sampled_from([1, 7, 100]))
        cfg = TrainConfig(seed=3, e_tol=1e-3, max_e_iters=max_e_iters)
        splits = data.draw(st.lists(st.lists(st.integers(1, 6), min_size=1, max_size=3),
                                    min_size=1, max_size=5))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        tasks = [Task(f"t{d}", [(model.mu[rng.integers(K)] + rng.normal(size=(n, 2)))
                                .astype(np.float32) for n in counts])
                 for d, counts in enumerate([*splits, [1]])]
        if clamping:
            far = rng.normal(size=(4, 2))
            far[3, 1] += 60.0
            tasks.append(Task("far", [far.astype(np.float32)]))
        block_rows = data.draw(st.integers(1, 40))
        with patch.object(inference, "_BLOCK_ROWS", block_rows), \
                patch.object(inference, "_log_space_logits",
                             wraps=inference._log_space_logits) as log_space:
            states = estep_states(tasks, model, cfg)
            for task, state in zip(tasks, states, strict=True):
                assert bound_gap(task, state, model) <= 1e-12
            if clamping:
                on_zero = [np.eye(K)[np.zeros(len(block), dtype=int)] for block in states[-1].r]
                states[-1] = VariationalState(on_zero, states[-1].gamma,
                                              np.full((1, L), 1.0 / L), states[-1].lam)
            continued = continued_estep_states(tasks, states, model, cfg)
        if clamping:
            assert continued[-1].gamma_clamps > 0 and log_space.called
        for task, state in zip(tasks, continued, strict=True):
            assert bound_gap(task, state, model) <= 1e-12


class TestSquarem:
    """The E-step's SQUAREM cycles: the bound never falls across the states
    they keep, and they reach the fixed point in fewer sweeps."""

    def test_bound_never_falls_across_accepted_steps(self, monkeypatch):
        # Every E-step runs alone, so each safeguard sees one task: the bound
        # of the cycle's start and of the state the task keeps next, which
        # the next cycle must start from.  Cases: the query bank, and the
        # query model's tasks of 16 x 5, two of whose first 15 reject a
        # stabilizing sweep; the clamping model, whose gamma keeps 1.1e-16
        # residues, at several caps; a task continued from all its samples
        # on theme 0, whose sample at (0, 60) is normalized in log space;
        # and a model whose second alpha row underflows eta to 0 (e_tol
        # 1e-10, so the underflowed state is extrapolated), all with
        # RuntimeWarnings as errors.
        chains, points, zeros, rejected = [], [], [], []
        estep_block, safeguard = inference._estep_block, inference._safeguard
        extrapolate = inference._extrapolate

        def spy_block(*args):
            chains.append([])
            return estep_block(*args)

        def spy_safeguard(start_bound, bound, fallback_bound):
            accept, kept = safeguard(start_bound, bound, fallback_bound)
            chains[-1].append((start_bound.copy(), kept.copy()))
            rejected.append(int(np.count_nonzero(~accept)))
            return accept, kept

        def spy_extrapolate(x0, x1, x2, live, model):
            zeros.append(int(np.count_nonzero(x2[model.K:] == np.log(inference._TINY))))
            point = extrapolate(x0, x1, x2, live, model)
            points.append((point.gamma.copy(), point.eta.copy(), point.lam.copy(), model))
            return point

        monkeypatch.setattr(inference, "_estep_block", spy_block)
        monkeypatch.setattr(inference, "_safeguard", spy_safeguard)
        monkeypatch.setattr(inference, "_extrapolate", spy_extrapolate)
        clamping = TestEstepBatch().model()
        rng = np.random.default_rng(1)
        far = rng.normal(size=(4, 2))
        far[3, 1] += 60.0
        far = Task("far", [far.astype(np.float32)])
        under = ThemeModel(np.array([[0.0, 0.0], [8.0, 0.0]]), np.stack([np.eye(2)] * 2),
                           np.array([[1.0, 1.0], [1000.0, 1.0]]), np.array([0.5, 0.5]))
        rng = np.random.default_rng(2)
        lopsided = Task("lopsided", [(rng.normal(size=(n, 2)) + c).astype(np.float32)
                                     for c, n in (([8, 0], 16), ([0, 0], 5), ([8, 0], 9))])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            model, bank = query_bank()
            for task in [*bank, *generate_synthetic(model, 15, 16, 5, seed=11)[0]]:
                run_estep(task, model, TrainConfig())
            assert sum(rejected) >= 2
            for cap in (7, 20, 100):
                cfg = TrainConfig(seed=3, e_tol=1e-3, max_e_iters=cap)
                for task in TestEstepBatch().tasks():
                    estep_states([task], clamping, cfg)
                (state,) = estep_states([far], clamping, cfg)
                on_zero = VariationalState([np.eye(3)[np.zeros(4, dtype=int)]], state.gamma,
                                           np.full((1, 2), 0.5), state.lam)
                with patch.object(inference, "_log_space_logits",
                                  wraps=inference._log_space_logits) as log_space:
                    (continued,) = continued_estep_states([far], [on_zero], clamping, cfg)
                assert log_space.called and continued.gamma_clamps > 0
            before = len(points)
            run_estep(lopsided, under, TrainConfig(e_tol=1e-10))
            assert len(points) > before and zeros[-1] > 0
        assert sum(map(len, chains)) > 400
        for chain in chains:
            for (start_bound, kept), (next_start, _) in zip(chain, chain[1:]):
                assert next_start.tobytes() == kept.tobytes()
            for start_bound, kept in chain:
                assert np.all(kept >= start_bound - 1e-12 * np.abs(start_bound))
        for gamma, eta, lam, model in points:
            assert gamma.min() >= inference._GAMMA_FLOOR
            assert np.abs(eta.sum(axis=0) - 1.0).max() <= 1e-12
            assert np.allclose(lam, model.delta_col + eta.sum(axis=1, keepdims=True),
                               rtol=1e-14, atol=0)

    @staticmethod
    def mixed_block():
        # The query bank and the query model's 15 tasks of 16 x 5, two of
        # which reject a stabilizing sweep, as one block of 11 440 rows.
        model, bank = query_bank()
        return model, [*bank, *generate_synthetic(model, 15, 16, 5, seed=11)[0]], TrainConfig()

    def test_mixed_block_keeps_solo_bytes(self, monkeypatch):
        # Some safeguards see tasks accept and reject side by side, so the
        # state merges per class, and some tasks stop at the first or
        # second sweep of a cycle while others run on, so they are recorded
        # mid-cycle and leave the arrays at its end.  Every task's result
        # is still its batch-of-one result, byte for byte.
        model, tasks, cfg = self.mixed_block()
        safeguard, mixed = inference._safeguard, []

        def spy_safeguard(start_bound, bound, fallback_bound):
            accept, kept = safeguard(start_bound, bound, fallback_bound)
            mixed.append(accept.size > 1 and accept.any() and not accept.all())
            return accept, kept

        monkeypatch.setattr(inference, "_safeguard", spy_safeguard)
        parts = list(estep_blocks(tasks, model, cfg))
        assert len(parts) == 1 and any(mixed)
        states = unstack(parts[0])
        # After the first sweep, cycles of 3 sweeps start at sweeps 1, 4, ...,
        # 94: sweeps 2 and 3 (mod 3) up to 96 are a cycle's first or second.
        iterations = [s.iterations for s in states]
        assert any(i % 3 != 1 and i <= 96 and max(iterations) > i + 2 for i in iterations)
        for task, got in zip(tasks, states, strict=True):
            (want,) = estep_states([task], model, cfg)
            assert_same_bits([*got.r, got.gamma, got.eta, got.lam],
                             [*want.r, want.gamma, want.eta, want.lam])
            assert (got.iterations, got.converged, got.gamma_clamps, got.bound) == (
                want.iterations, want.converged, want.gamma_clamps, want.bound)

    def test_every_bound_reads_its_own_totals(self, monkeypatch):
        # Each `_sweep_bound` call gets the row totals of the state it is
        # given, rebuilt here from that state's used E[ln theta] and the
        # block's log-densities at the live classes' rows: the start bound,
        # each cycle's bound, the fallback from x2's kept totals and the
        # final `Posterior.bound`, in the mixed block, its tasks alone and a
        # whole-collection `train`.
        sweep_bound, safeguard = inference._sweep_bound, inference._safeguard
        estep_block = inference._estep_block
        calls, where = [], ["final"]

        def spy_bound(seg, log_pdfs, shift, s, total, model):
            rows = (np.repeat(seg.rows0 - seg.class_starts, seg.class_counts)
                    + np.arange(seg.class_counts.sum()))
            dens = np.exp(log_pdfs[:, rows] - shift)
            want = inference._responsibilities(s.used, dens, seg, log_pdfs)[1]
            assert total.tobytes() == want.tobytes()
            calls.append(where[-1])
            if where[-1] == "start":
                where[-1] = "cycle"
            return sweep_bound(seg, log_pdfs, shift, s, total, model)

        def spy_block(*args):
            where.append("start")
            try:
                return estep_block(*args)
            finally:
                where.pop()

        def spy_safeguard(start_bound, bound, fallback_bound):
            def fallback():
                where.append("fallback")
                try:
                    return fallback_bound()
                finally:
                    where.pop()
            return safeguard(start_bound, bound, fallback)

        monkeypatch.setattr(inference, "_sweep_bound", spy_bound)
        monkeypatch.setattr(inference, "_estep_block", spy_block)
        monkeypatch.setattr(learning, "_estep_block", spy_block)
        monkeypatch.setattr(inference, "_safeguard", spy_safeguard)
        model, tasks, cfg = self.mixed_block()
        estep_states(tasks, model, cfg)
        for task in tasks:
            estep_states([task], model, cfg)
        assert {"start", "cycle", "fallback", "final"} <= set(calls)
        before = len(calls)
        planted = ThemeModel(np.array([[0.0, 0.0], [8.0, 0.0], [0.0, 8.0]]),
                             np.stack([np.eye(2)] * 3),
                             np.array([[6.0, 1.0, 1.0], [1.0, 1.0, 6.0]]), np.array([0.01, 0.01]))
        collection, _ = generate_synthetic(planted, 200, 5, 16, seed=7)
        learning.train(collection, 2, 3, TrainConfig(seed=0, max_batches=3))
        assert {"start", "cycle", "final"} <= set(calls[before:])

    def test_sweeps_and_distance_to_fixed_point_on_query_bank(self):
        # The plain sweep loop took a mean of 21.8 sweeps and a maximum of
        # 100 here, and ended a median 3.26e-3 from the fixed point.
        model, bank = query_bank()
        reference = TrainConfig(e_tol=1e-13, max_e_iters=5000)
        sweeps, distances = [], []
        for task in bank:
            state = run_estep(task, model, TrainConfig())
            sweeps.append(int(state.iterations))
            fixed = run_estep(task, model, reference)
            assert fixed.converged
            distances.append(float(np.abs(state.lam - fixed.lam).max()))
        assert np.mean(sweeps) <= 12 and max(sweeps) <= 50
        assert np.median(distances) < 2e-3


class TestExactMaximizers:
    """Each update, holding the rest fixed, should be a local maximum of the
    bound: feasible perturbations of norm about 1e-3 never increase it."""

    def instances(self):
        for seed in range(10):
            model = make_model(
                K=2 + seed % 2, L=2 + (seed // 2) % 2, D=2, seed=seed
            )
            task = make_task(C=2 + seed % 3, N=3, D=2, seed=seed, task_id=f"m{seed}")
            state = random_state(task, model, seed=seed + 50)
            yield seed, task, model, state

    def perturbations(self, shape, rng, count=8):
        for _ in range(count):
            direction = rng.normal(size=shape)
            norm = np.linalg.norm(direction)
            yield 1e-3 * direction / norm

    def test_r_is_argmax(self):
        for seed, task, model, state in self.instances():
            rng = np.random.default_rng(seed + 100)
            c = 0
            state.r[c] = update_r(task, c, state, model)
            base = task_elbo(task, state, model)
            for step in self.perturbations(state.r[c].shape, rng):
                cand = np.clip(state.r[c] + step, 1e-12, None)
                cand /= cand.sum(axis=1)[:, None]
                trial = VariationalState(
                    [cand if i == c else b for i, b in enumerate(state.r)],
                    state.gamma,
                    state.eta,
                    state.lam,
                )
                assert task_elbo(task, trial, model) <= base + 1e-10

    def test_gamma_is_argmax(self):
        for seed, task, model, state in self.instances():
            rng = np.random.default_rng(seed + 200)
            c = 0
            gamma = state.gamma.copy()
            gamma[c] = update_gamma(state, c, model.alpha)
            state.gamma = gamma
            base = task_elbo(task, state, model)
            for step in self.perturbations(gamma[c].shape, rng):
                cand = gamma.copy()
                cand[c] = np.clip(cand[c] + step, 1e-9, None)
                trial = VariationalState(state.r, cand, state.eta, state.lam)
                assert task_elbo(task, trial, model) <= base + 1e-10

    def test_eta_is_argmax(self):
        for seed, task, model, state in self.instances():
            rng = np.random.default_rng(seed + 300)
            c = 0
            eta = state.eta.copy()
            eta[c] = update_eta(state, c, model)
            state.eta = eta
            base = task_elbo(task, state, model)
            for step in self.perturbations(eta[c].shape, rng):
                cand = eta.copy()
                cand[c] = np.clip(cand[c] + step, 1e-12, None)
                cand[c] /= cand[c].sum()
                trial = VariationalState(state.r, state.gamma, cand, state.lam)
                assert task_elbo(task, trial, model) <= base + 1e-10

    def test_lambda_is_argmax(self):
        for seed, task, model, state in self.instances():
            rng = np.random.default_rng(seed + 400)
            state.lam = update_lambda(state, model.delta)
            base = task_elbo(task, state, model)
            for step in self.perturbations(state.lam.shape, rng):
                cand = np.clip(state.lam + step, 1e-9, None)
                trial = VariationalState(state.r, state.gamma, state.eta, cand)
                assert task_elbo(task, trial, model) <= base + 1e-10


class TestElbo:
    def test_uniform_eta_entropy(self):
        model = make_model(L=4, K=2, seed=11)
        task = make_task(C=1, N=2)
        state = random_state(task, model, seed=12)
        state.eta = np.full((1, 4), 0.25)
        terms = elbo_terms(stack_states([task], [state], model), model)
        assert terms["log_qy"][0] == pytest.approx(-math.log(4.0), abs=1e-12)

    def test_degenerate_equals_gaussian_loglik(self):
        # K = L = 1 with alpha = delta = 1: every Dirichlet term cancels and
        # the bound is exactly the Gaussian log-likelihood.
        mu = np.array([[0.5, -0.2]])
        sigma = np.array([[[1.5, 0.2], [0.2, 0.8]]])
        model = ThemeModel(mu, sigma, np.ones((1, 1)), np.ones(1))
        task = make_task(C=3, N=4, seed=7)
        (part,) = estep_blocks([task], model, TrainConfig())
        x = stack_samples([task])
        ref = stats.multivariate_normal(mu[0], sigma[0]).logpdf(x).sum()
        assert elbo(part, model)[0] == pytest.approx(ref, rel=1e-12)

    def test_nine_terms_against_naive_loops(self):
        model = make_model(K=2, L=2, seed=21)
        task = make_task(C=2, N=3, seed=22, task_id="naive")
        state = random_state(task, model, seed=23)
        got = elbo_terms(stack_states([task], [state], model), model)
        want = naive_elbo_terms(task, state, model)
        assert set(got) == set(want)
        for key in want:
            assert got[key][0] == pytest.approx(want[key], rel=1e-10, abs=1e-10), key

    def test_elbo_is_term_sum(self):
        model = make_model(seed=31)
        task = make_task(seed=32, task_id="sum")
        state = random_state(task, model, seed=33)
        part = stack_states([task], [state], model)
        t = elbo_terms(part, model)
        total = (
            t["log_px"] + t["log_pz"] + t["log_ptheta"] + t["log_py"] + t["log_pphi"]
            - t["log_qz"] - t["log_qtheta"] - t["log_qy"] - t["log_qphi"]
        )
        assert elbo(part, model) == pytest.approx(total, rel=1e-14)


class TestLambdaCsv:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        ids = ["a", "b", "c"]
        lam = rng.uniform(0.1, 9.0, size=(3, 4))
        path = tmp_path / "lambdas.csv"
        write_lambda_csv(path, ids, lam)
        got_ids, got = read_lambda_csv(path)
        assert got_ids == ids
        assert np.array_equal(got, lam)
        header = path.read_text().splitlines()[0]
        assert header == "task_id,lambda_1,lambda_2,lambda_3,lambda_4"

    def test_bytes(self, tmp_path):
        path = tmp_path / "lambdas.csv"
        lam = np.array([[np.float64(0.1) + np.float64(0.2), 1.0], [2.5, 1e-300]])
        write_lambda_csv(path, ["a", "b"], lam)
        assert path.read_bytes() == (
            b"task_id,lambda_1,lambda_2\na,0.30000000000000004,1.0\nb,2.5,1e-300\n"
        )

    def test_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("nope,lambda_1\nx,1.0\n")
        with pytest.raises(FormatError):
            read_lambda_csv(path)

    def test_rejects_nonpositive(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("task_id,lambda_1\nx,-1.0\n")
        with pytest.raises(FormatError):
            read_lambda_csv(path)

    def test_rejects_ragged_rows(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("task_id,lambda_1,lambda_2\nx,1.0\n")
        with pytest.raises(FormatError):
            read_lambda_csv(path)

    def test_rejects_empty(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("task_id,lambda_1\n")
        with pytest.raises(FormatError):
            read_lambda_csv(path)

    def test_rejects_repeated_id(self, tmp_path):
        # distance would write the id twice, which diagram then rejects.
        path = tmp_path / "lambdas.csv"
        path.write_text("task_id,lambda_1\nt1,1.0\nt2,2.0\nt1,3.0\n")
        with pytest.raises(FormatError, match=r"lambdas\.csv:4: duplicate task id 't1'"):
            read_lambda_csv(path)
