import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldcc.data import Task, TaskCollection, stack_samples
from ldcc.errors import CheckpointError, DataError, ModelError
import ldcc.model as model_module
from ldcc.model import (
    ThemeModel,
    TrainConfig,
    init_model,
    load_model,
    save_model,
)
from ldcc.streams import init_stream


def one_pass_log_pdfs(m, x):
    """ThemeModel.log_pdfs with the differences of all rows to
    all themes in one (D, K, n) array: the reference for its row split.  A
    single row is the first of two, as log_pdfs solves it: einsum would sum
    a one-row pass in another order than any larger one."""
    if len(x) == 1:
        return one_pass_log_pdfs(m, x.repeat(2, axis=0))[:, :1]
    z =np.ascontiguousarray(x.T)[:, None, :] - m.mu.T[:, :, None]
    for i in range(m.D):
        z[i] -= np.einsum("kj,jkn->kn", m.chol_factors[:, i, :i], z[:i])
        z[i] /= m.chol_factors[:, i, i, None]
    out = np.einsum("ikn,ikn->kn", z, z)
    out += m.D * math.log(2.0 * math.pi) + m.log_dets[:, None]
    out *= -0.5
    return out


def gaussian_log_pdf(m, x, k):
    """Log-density of one sample under image-theme k, as a one-row log_pdfs."""
    return float(m.log_pdfs(np.asarray(x, dtype=np.float64)[None, :])[k, 0])


def make_model(K=2, D=2, L=2):
    rng = np.random.default_rng(0)
    mu = rng.normal(size=(K, D))
    base = rng.normal(size=(K, D, D))
    sigma = np.einsum("kij,klj->kil", base, base) + 0.5 * np.eye(D)
    alpha = rng.uniform(0.5, 3.0, size=(L, K))
    delta = rng.uniform(0.5, 2.0, size=L)
    return ThemeModel(mu, sigma, alpha, delta)


class TestThemeModel:
    def test_dimensions(self):
        m = make_model(K=3, D=2, L=4)
        assert m.K == 3 and m.D == 2 and m.L == 4

    def test_arrays_frozen(self):
        m = make_model()
        with pytest.raises(ValueError):
            m.mu[0, 0] = 99.0

    def test_rejects_asymmetric_sigma(self):
        sigma = np.stack([np.array([[1.0, 0.4], [0.1, 1.0]])])
        with pytest.raises(ModelError):
            ThemeModel(np.zeros((1, 2)), sigma, np.ones((1, 1)), np.ones(1))

    def test_rejects_indefinite_sigma(self):
        sigma = np.stack([np.array([[1.0, 2.0], [2.0, 1.0]])])
        with pytest.raises(ModelError):
            ThemeModel(np.zeros((1, 2)), sigma, np.ones((1, 1)), np.ones(1))

    def test_rejects_nonpositive_alpha(self):
        with pytest.raises(ModelError):
            ThemeModel(
                np.zeros((1, 2)), np.stack([np.eye(2)]), np.zeros((1, 1)), np.ones(1)
            )

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ModelError):
            ThemeModel(np.zeros((2, 2)), np.stack([np.eye(2)]), np.ones((1, 2)), np.ones(1))


class TestGaussianLogPdf:
    def test_standard_normal_origin_1d(self):
        m = ThemeModel(np.zeros((1, 1)), np.ones((1, 1, 1)), np.ones((1, 1)), np.ones(1))
        assert gaussian_log_pdf(m, np.zeros(1), 0) == pytest.approx(
            -0.5 * math.log(2 * math.pi), abs=1e-12
        )

    def test_at_mean_identity_cov(self):
        m = make_model(K=1, D=3)
        m = ThemeModel(m.mu, np.stack([np.eye(3)]), m.alpha, m.delta)
        assert gaussian_log_pdf(m, m.mu[0], 0) == pytest.approx(
            -1.5 * math.log(2 * math.pi), abs=1e-12
        )

    def test_hand_evaluated_instance(self):
        # mu=(1,0), Sigma=diag(4,1), x=(3,1): quadratic term 4/4 + 1,
        # log det = ln 4, so the density is -(ln 2pi) - 0.5 ln 4 - 1.
        m = ThemeModel(
            np.array([[1.0, 0.0]]),
            np.stack([np.diag([4.0, 1.0])]),
            np.ones((1, 1)),
            np.ones(1),
        )
        expected = -math.log(2 * math.pi) - 0.5 * math.log(4.0) - 1.0
        got = gaussian_log_pdf(m, np.array([3.0, 1.0]), 0)
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(-3.5310242469692906, abs=1e-12)

    def test_1d_quadrature_integrates_to_one(self):
        m = ThemeModel(
            np.array([[0.7]]), np.array([[[2.3]]]), np.ones((1, 1)), np.ones(1)
        )
        grid = np.linspace(-20, 20, 40001)
        dens = np.exp([gaussian_log_pdf(m, np.array([g]), 0) for g in grid])
        assert np.trapezoid(dens, grid) == pytest.approx(1.0, abs=1e-4)

    def test_matches_explicit_inverse(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            D = int(rng.integers(1, 9))
            base = rng.normal(size=(D, D))
            sigma = base @ base.T + 0.3 * np.eye(D)
            mu = rng.normal(size=D)
            m = ThemeModel(
                mu[None], sigma[None], np.ones((1, 1)), np.ones(1)
            )
            x = rng.normal(size=D) * 2
            diff = x - mu
            _, logdet = np.linalg.slogdet(sigma)
            expected = -0.5 * (
                D * math.log(2 * math.pi) + logdet + diff @ np.linalg.inv(sigma) @ diff
            )
            assert abs(gaussian_log_pdf(m, x, 0) - expected) <= 1e-8

    def test_all_themes_match_explicit_inverse(self):
        # Several themes and rows at once, against an explicit inverse and
        # slogdet: rotated covariances whose eigenvalues span four decades.
        rng = np.random.default_rng(9)
        for _ in range(20):
            K, D, n = int(rng.integers(1, 7)), int(rng.integers(1, 9)), 7
            rotations = np.linalg.qr(rng.normal(size=(K, D, D)))[0]
            eigenvalues = 10.0 ** rng.uniform(-2.0, 2.0, size=(K, D))
            sigma = np.einsum("kij,kj,klj->kil", rotations, eigenvalues, rotations)
            sigma = 0.5 * (sigma + np.transpose(sigma, (0, 2, 1)))
            mu = rng.normal(size=(K, D))
            m = ThemeModel(mu, sigma, np.ones((1, K)), np.ones(1))
            x = rng.normal(size=(n, D)) * 2
            table = m.log_pdfs(x)
            assert table.shape == (K, n)
            for k in range(K):
                _, logdet = np.linalg.slogdet(sigma[k])
                diff = x - mu[k]
                quad = np.einsum("ni,ij,nj->n", diff, np.linalg.inv(sigma[k]), diff)
                expected = -0.5 * (D * math.log(2 * math.pi) + logdet + quad)
                assert np.max(np.abs(table[k] - expected)) <= 1e-8

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_row_split_keeps_bytes(self, data):
        # log_pdfs works through the rows in near-equal pieces of at most
        # _LOG_PDF_ROWS; pieces of two rows or more (any limit of 4 or more)
        # must give the bytes of all rows in one pass.
        K, D = data.draw(st.integers(1, 8)), data.draw(st.integers(1, 8))
        n = data.draw(st.integers(1, 60))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        base = rng.normal(size=(K, D, D))
        sigma = np.einsum("kij,klj->kil", base, base) + 0.1 * np.eye(D)
        m = ThemeModel(rng.normal(size=(K, D)) * 3, sigma, np.ones((1, K)), np.ones(1))
        x = rng.normal(size=(n, D)) * 4
        want = one_pass_log_pdfs(m, x)
        for rows in (4, data.draw(st.integers(4, max(4, n))), n, 4096):
            with mock.patch.object(model_module, "_LOG_PDF_ROWS", rows):
                assert m.log_pdfs(x).tobytes() == want.tobytes()

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_one_row_keeps_bytes(self, data):
        # A row alone, and gaussian_log_pdf of it, carry the bytes it has
        # among 50 rows.
        K, D = data.draw(st.integers(1, 8)), data.draw(st.integers(1, 16))
        j = data.draw(st.integers(0, 49))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        base = rng.normal(size=(K, D, D))
        sigma = np.einsum("kij,klj->kil", base, base) + 0.1 * np.eye(D)
        m = ThemeModel(rng.normal(size=(K, D)) * 3, sigma, np.ones((1, K)), np.ones(1))
        x = rng.normal(size=(50, D)) * 4
        table = m.log_pdfs(x)
        one = m.log_pdfs(x[j:j + 1])
        assert table.flags.c_contiguous
        assert one.shape == (K, 1) and one.flags.c_contiguous
        assert one.tobytes() == table[:, j].tobytes()
        k = data.draw(st.integers(0, K - 1))
        assert gaussian_log_pdf(m, x[j], k) == table[k, j]

    def test_batch_matches_single(self):
        m = make_model(K=3, D=2)
        rng = np.random.default_rng(1)
        x = rng.normal(size=(5, 2))
        table = m.log_pdfs(x)
        assert table.shape == (3, 5)
        for n in range(5):
            for k in range(3):
                assert table[k, n] == pytest.approx(
                    gaussian_log_pdf(m, x[n], k), rel=1e-12, abs=1e-12
                )


class TestInitModel:
    def collection(self):
        pts = np.array(
            [[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [2.0, 2.0]], dtype=np.float32
        )
        return TaskCollection([Task("t0", [pts[:2]]), Task("t1", [pts[2:]])])

    def test_hand_covariance_four_points(self):
        coll = self.collection()
        m = init_model(coll, 2, 1, delta_value=0.5, seed=0, jitter=1e-6)
        # mean (1,1), each coordinate deviates by 1, cross terms cancel
        expected = np.eye(2) + 1e-6 * np.eye(2)
        assert np.allclose(m.sigma[0], expected, atol=1e-12)
        # The mean is the row the init stream picks, as before alpha was
        # drawn; alpha is exp(0.2 z), z drawn from the same stream after it.
        assert m.mu.tolist() == [[2.0, 2.0]]
        rng = init_stream(0)
        assert np.array_equal(m.mu, stack_samples(coll)[rng.choice(4, size=1, replace=False)])
        assert np.array_equal(m.alpha, np.exp(0.2 * rng.standard_normal((2, 1))))
        assert len(np.unique(m.alpha)) == 2
        assert np.all(m.delta == 0.5)

    def test_means_are_data_rows(self):
        coll = self.collection()
        m = init_model(coll, 2, 3, delta_value=1.0, seed=4)
        pooled = stack_samples(coll)
        for k in range(3):
            assert any(np.allclose(m.mu[k], row) for row in pooled)
        # distinct rows
        assert len({tuple(r) for r in m.mu}) == 3

    def test_deterministic(self):
        coll = self.collection()
        a = init_model(coll, 2, 2, delta_value=1.0, seed=7)
        b = init_model(coll, 2, 2, delta_value=1.0, seed=7)
        assert a == b
        c = init_model(coll, 2, 2, delta_value=1.0, seed=8)
        assert not np.array_equal(a.mu, c.mu) or a == c

    def test_too_many_themes(self):
        with pytest.raises(ValueError):
            init_model(self.collection(), 1, 5, delta_value=1.0, seed=0)

    def test_mixed_dimensions(self):
        tasks = [*self.collection(), Task("wide", [np.zeros((4, 3))])]
        with pytest.raises(DataError, match=r"dimension: \[2, 3\]"):
            init_model(tasks, 1, 2, delta_value=1.0, seed=0)

    def test_empty_task_list(self):
        with pytest.raises(DataError, match="the task list is empty"):
            init_model([], 1, 2, delta_value=1.0, seed=0)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            init_model(self.collection(), 0, 1, delta_value=1.0, seed=0)
        with pytest.raises(ValueError):
            init_model(self.collection(), 1, 1, delta_value=0.0, seed=0)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        m = make_model(K=3, D=2, L=2)
        path = tmp_path / "model.json"
        save_model(m, path)
        loaded = load_model(path)
        assert np.array_equal(loaded.mu, m.mu)
        assert np.array_equal(loaded.sigma, m.sigma)
        assert np.array_equal(loaded.alpha, m.alpha)
        assert np.array_equal(loaded.delta, m.delta)
        # a second save of the loaded model produces identical bytes
        path2 = tmp_path / "model2.json"
        save_model(loaded, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_rejects_bad_version(self, tmp_path):
        m = make_model()
        path = tmp_path / "model.json"
        save_model(m, path)
        payload = json.loads(path.read_text())
        payload["version"] = 99
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError):
            load_model(path)

    def test_rejects_missing_field(self, tmp_path):
        m = make_model()
        path = tmp_path / "model.json"
        save_model(m, path)
        payload = json.loads(path.read_text())
        del payload["alpha"]
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError):
            load_model(path)

    def test_rejects_negative_alpha(self, tmp_path):
        m = make_model()
        path = tmp_path / "model.json"
        save_model(m, path)
        payload = json.loads(path.read_text())
        payload["alpha"][0][0] = -1.0
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError):
            load_model(path)

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("not json at all")
        with pytest.raises(CheckpointError):
            load_model(path)


class TestTrainConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert cfg.tau0 == 100.0
        assert cfg.tau1 == 0.51
        assert cfg.batch_size == 500
        assert cfg.e_tol == 1e-3
        assert cfg.max_e_iters == 100
        assert cfg.jitter == 1e-6
        assert cfg.seed == 0
        assert cfg.max_batches == 100

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"tau1": 0.5},
            {"tau1": 0.4},
            {"tau1": 1.01},
            {"tau0": -1.0},
            {"batch_size": 0},
            {"e_tol": 0.0},
            {"max_e_iters": 0},
            {"jitter": -1e-9},
            {"max_batches": 0},
            {"tau0": math.nan},
            {"tau1": math.nan},
            {"e_tol": math.nan},
            {"jitter": math.nan},
            {"tau0": math.inf},
            {"e_tol": math.inf},
            {"jitter": math.inf},
            {"seed": -1},
            {"seed": 2**64},
        ],
    )
    def test_rejects_out_of_range(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)

    def test_boundary_seeds(self):
        assert TrainConfig(seed=0).seed == 0
        assert TrainConfig(seed=2**64 - 1).seed == 2**64 - 1

    def test_boundary_tau1(self):
        assert TrainConfig(tau1=1.0).tau1 == 1.0
        assert TrainConfig(tau1=0.51).tau1 == 0.51
