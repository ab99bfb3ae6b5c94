import hashlib
import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import array_dirichlet
from ldcc.cli import _random_model
from ldcc.data import (
    LatentRecord,
    Task,
    TaskCollection,
    _categorical,
    _dirichlet,
    generate_synthetic,
    load_latents,
    load_task_file,
    load_tasks,
    save_latents,
    save_tasks,
    stack_samples,
)
from ldcc.errors import DataError, FormatError
from ldcc.model import ThemeModel
from ldcc.streams import task_stream


def simple_model(L=2, K=2, D=2, delta=(1.0, 1.0)):
    mu = np.array([[-3.0, 0.0], [3.0, 0.0]])[:K, :D]
    sigma = np.stack([np.eye(D)] * K)
    alpha = np.array([[4.0, 0.5], [0.5, 4.0]])[:L, :K]
    return ThemeModel(mu, sigma, alpha, np.asarray(delta[:L], dtype=np.float64))


class TestTask:
    def test_basic_properties(self):
        t = Task("t", [np.zeros((3, 2)), np.ones((5, 2))])
        assert t.dimension == 2
        assert t.num_classes == 2
        assert t.counts == (3, 5)
        assert t.total_samples == 8
        assert t.classes[0].dtype == np.float32

    def test_stacked(self):
        # stack_samples: float64 rows, task by task and class by class, exact.
        t = Task("t", [np.zeros((3, 2)), np.ones((5, 2))])
        u = Task("u", [np.full((2, 2), 2.0), np.full((1, 2), 0.1)])
        x = stack_samples([t, u])
        assert x.dtype == np.float64
        assert x.shape == (11, 2)
        assert x[:, 0].tolist() == [0.0] * 3 + [1.0] * 5 + [2.0] * 2 + [float(np.float32(0.1))]
        assert np.array_equal(stack_samples([u]), x[8:])

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(DataError):
            Task("t", [np.zeros((2, 2)), np.zeros((2, 3))])

    def test_rejects_empty_class(self):
        with pytest.raises(DataError):
            Task("t", [np.zeros((0, 2))])

    def test_rejects_non_finite(self):
        block = np.zeros((2, 2))
        block[1, 1] = np.nan
        with pytest.raises(DataError):
            Task("t", [block])

    def test_rejects_empty_id(self):
        with pytest.raises(DataError):
            Task("", [np.zeros((2, 2))])


class TestTaskCollection:
    def test_rejects_duplicate_ids(self):
        a = Task("same", [np.zeros((1, 2))])
        b = Task("same", [np.ones((1, 2))])
        with pytest.raises(DataError):
            TaskCollection([a, b])

    def test_rejects_mixed_dimensions(self):
        a = Task("a", [np.zeros((1, 2))])
        b = Task("b", [np.zeros((1, 3))])
        with pytest.raises(DataError):
            TaskCollection([a, b])

    def test_rejects_empty(self):
        with pytest.raises(DataError):
            TaskCollection([])

    def test_ordering_and_lookup(self):
        tasks = [Task(f"t{i}", [np.full((1, 2), i, dtype=np.float32)]) for i in range(4)]
        coll = TaskCollection(tasks)
        assert len(coll) == 4
        assert coll.ids == ["t0", "t1", "t2", "t3"]
        assert coll[2].id == "t2"


class TestLatentRecord:
    def test_validates_simplex(self):
        with pytest.raises(DataError):
            LatentRecord(np.array([[0.6, 0.6]]), np.zeros((1, 2)), np.zeros((1, 2, 3)))

    @pytest.mark.parametrize("y, z", [([[0.7]], [[[0, 1]]]), ([[0]], [[[0, 1.9]]])], ids=["y", "z"])
    def test_rejects_non_integral_assignments(self, y, z):
        with pytest.raises(DataError, match="integers"):
            LatentRecord([[1.0]], y, z)

    def test_task_themes(self):
        rec = LatentRecord(
            np.array([[0.9, 0.1], [0.2, 0.8]]),
            np.zeros((2, 1)),
            np.zeros((2, 1, 2)),
        )
        assert rec.task_themes.tolist() == [0, 1]


class TestGenerator:
    def test_shapes_and_ids(self):
        coll, rec = generate_synthetic(simple_model(), 5, 3, 4, seed=0)
        assert len(coll) == 5
        assert coll.ids == [f"task_{d:05d}" for d in range(5)]
        assert all(t.num_classes == 3 and t.counts == (4, 4, 4) for t in coll)
        assert rec.phi.shape == (5, 2)
        assert rec.y.shape == (5, 3)
        assert rec.z.shape == (5, 3, 4)

    def test_deterministic(self):
        a = generate_synthetic(simple_model(), 6, 2, 3, seed=42)
        b = generate_synthetic(simple_model(), 6, 2, 3, seed=42)
        assert a[0] == b[0]
        assert a[1] == b[1]
        c = generate_synthetic(simple_model(), 6, 2, 3, seed=43)
        assert c[0] != a[0]

    def test_prefix_stability(self):
        # Per-task streams: the first tasks do not depend on how many follow.
        big, _ = generate_synthetic(simple_model(), 8, 2, 3, seed=7)
        small, _ = generate_synthetic(simple_model(), 3, 2, 3, seed=7)
        for d in range(3):
            assert big[d] == small[d]

    def test_single_task_theme_forces_y_zero(self):
        model = ThemeModel(
            np.array([[0.0, 0.0], [5.0, 5.0]]),
            np.stack([np.eye(2)] * 2),
            np.array([[1.0, 1.0]]),
            np.array([2.0]),
        )
        coll, rec = generate_synthetic(model, 10, 3, 2, seed=1)
        assert np.all(rec.y == 0)
        assert np.allclose(rec.phi, 1.0)

    def test_latent_index_ranges(self):
        coll, rec = generate_synthetic(simple_model(), 20, 3, 4, seed=5)
        assert rec.y.min() >= 0 and rec.y.max() < 2
        assert rec.z.min() >= 0 and rec.z.max() < 2

    def test_single_image_theme_sample_moments(self):
        # K = 1: features are plain Gaussian draws around mu.
        sigma = np.array([[[2.0, 0.5], [0.5, 1.0]]])
        model = ThemeModel(
            np.array([[1.0, -2.0]]), sigma, np.array([[1.0], [1.0]]), np.array([1.0, 1.0])
        )
        coll, _ = generate_synthetic(model, 100, 5, 200, seed=3)
        x = stack_samples(coll)
        n = x.shape[0]
        assert n == 100 * 5 * 200
        # 4-sigma bands around the true moments
        mean_err = np.abs(x.mean(axis=0) - np.array([1.0, -2.0]))
        assert np.all(mean_err < 4 * np.sqrt(np.diag(sigma[0]) / n))
        emp_cov = np.cov(x.T, bias=True)
        assert np.abs(emp_cov - sigma[0]).max() < 0.05

    def test_task_theme_frequencies(self):
        # Marginal P(y = l) is delta_l / sum(delta); per-task averaging keeps
        # the variance of the frequency below p(1-p)/M even with within-task
        # correlation through phi.
        model = simple_model(delta=(1.0, 3.0))
        M, C = 2000, 4
        _, rec = generate_synthetic(model, M, C, 1, seed=9)
        freq = (rec.y == 1).mean()
        p = 3.0 / 4.0
        se = np.sqrt(p * (1 - p) / M)
        assert abs(freq - p) < 4 * se

    def test_image_theme_frequencies_track_alpha(self):
        # One task theme with a lopsided alpha row: P(z = k) = alpha_k / sum.
        model = ThemeModel(
            np.array([[0.0, 0.0], [1.0, 1.0]]),
            np.stack([np.eye(2)] * 2),
            np.array([[6.0, 2.0]]),
            np.array([1.0]),
        )
        M, C = 1500, 2
        _, rec = generate_synthetic(model, M, C, 4, seed=11)
        freq = (rec.z == 0).mean()
        p = 6.0 / 8.0
        se = np.sqrt(p * (1 - p) / (M * C))
        assert abs(freq - p) < 4 * se

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_categorical_is_choice(self, data):
        # The same draws as Generator.choice, and the stream left where
        # choice leaves it, for the normalized p that _dirichlet gives;
        # small concentrations underflow some entries to exact zeros.
        n = data.draw(st.integers(1, 32))
        concentration = data.draw(st.sampled_from([0.001, 0.01, 0.1, 1.0, 5.0]))
        size = data.draw(st.sampled_from([None, 1, 16]))
        seed = data.draw(st.integers(0, 2**32 - 1))
        p = _dirichlet(task_stream(seed, 1), np.full(n, concentration))
        ours, numpy_s = task_stream(seed, 2), task_stream(seed, 2)
        got, want = _categorical(ours, p, size), numpy_s.choice(n, size, p=p)
        assert np.shape(got) == np.shape(want) and np.array_equal(got, want)
        assert ours.random() == numpy_s.random()

    @pytest.mark.parametrize("name, digest", [
        ("planted", "b051abcc56dddfa48aed4a1bb70c21535bcfb8e396822661f6d302784d4dafab"),
        ("random", "6074e377c165643e9bb18caee37491e2193965c518b5eacee9283d59250fc922"),
    ])
    def test_golden_bytes(self, tmp_path, name, digest):
        # The written task files, manifest and latents of two fixed draws.
        # A change to the draw order, the arithmetic or the formats moves
        # these digests; they must then be re-recorded deliberately.
        if name == "planted":  # the acceptance model; delta 0.01 gives phi exact zeros
            model, seed = ThemeModel(
                np.array([[0.0, 0.0], [8.0, 0.0], [0.0, 8.0]]),
                np.stack([np.eye(2)] * 3),
                np.array([[6.0, 1.0, 1.0], [1.0, 1.0, 6.0]]),
                np.array([0.01, 0.01]),
            ), 7
        else:  # ldcc gen --random-model 3 4 4 --seed 3
            model, seed = _random_model((3, 4, 4), 0.5, 3), 3
        coll, rec = generate_synthetic(model, 12, 5, 16, seed)
        save_tasks(coll, tmp_path)
        save_latents(rec, tmp_path / "latents.json")
        h = hashlib.sha256()
        for path in sorted(tmp_path.iterdir()):
            h.update(path.name.encode() + b"\0" + path.read_bytes())
        assert h.hexdigest() == digest

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_dirichlet_is_array_gamma(self, data):
        # Entry-wise scalar draws: the values and stream position of one
        # standard_gamma(array) call per attempt, also when small
        # concentrations underflow every entry and force a redraw.
        n = data.draw(st.integers(1, 12))
        concentration = np.array(data.draw(st.lists(
            st.sampled_from([1e-4, 0.001, 0.1, 1.0, 6.0, 100.0]), min_size=n, max_size=n)))
        seed = data.draw(st.integers(0, 2**32 - 1))
        for conc in (concentration, concentration.tolist()):
            ours, numpy_s = task_stream(seed, 1), task_stream(seed, 1)
            got, want = _dirichlet(ours, conc), array_dirichlet(numpy_s, concentration)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            assert repr(ours.bit_generator.state) == repr(numpy_s.bit_generator.state)

    def test_dirichlet_redraws_underflow(self):
        # Seeds whose first attempt underflows every entry take the redraw.
        concentration = np.array([1e-4, 1e-4])
        redrawn = 0
        for seed in range(20):
            got = _dirichlet(task_stream(seed, 1), concentration.tolist())
            assert got.tobytes() == array_dirichlet(task_stream(seed, 1), concentration).tobytes()
            redrawn += not task_stream(seed, 1).standard_gamma(concentration).sum() > 0
        assert redrawn > 0
        with pytest.raises(DataError, match="underflowed"):
            _dirichlet(task_stream(0, 1), [0.0, 0.0])

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            generate_synthetic(simple_model(), 0, 2, 3, seed=0)
        with pytest.raises(ValueError):
            generate_synthetic(simple_model(), 2, 0, 3, seed=0)
        with pytest.raises(ValueError):
            generate_synthetic(simple_model(), 2, 2, 0, seed=0)


class TestRoundTrip:
    def test_bit_exact(self, tmp_path):
        coll, _ = generate_synthetic(simple_model(), 10, 3, 4, seed=21)
        manifest = save_tasks(coll, tmp_path / "data")
        loaded = load_tasks(manifest)
        assert loaded == coll
        for a, b in zip(coll, loaded):
            for x, y in zip(a.classes, b.classes):
                assert x.dtype == y.dtype == np.float32
                assert x.tobytes() == y.tobytes()

    def test_varying_class_sizes(self, tmp_path):
        t = Task("odd", [np.random.default_rng(0).normal(size=(n, 3)).astype(np.float32) for n in (1, 7, 2)])
        manifest = save_tasks(TaskCollection([t]), tmp_path)
        loaded = load_tasks(manifest)
        assert loaded[0] == t

    def test_latents_round_trip(self, tmp_path):
        _, rec = generate_synthetic(simple_model(), 4, 2, 3, seed=2)
        save_latents(rec, tmp_path / "latents.json")
        assert load_latents(tmp_path / "latents.json") == rec


class TestFormatErrors:
    def write_good(self, tmp_path):
        coll, _ = generate_synthetic(simple_model(), 1, 2, 2, seed=0)
        save_tasks(coll, tmp_path)
        return tmp_path / "task_00000.task"

    def test_bad_magic(self, tmp_path):
        path = self.write_good(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"NOPE"
        path.write_bytes(raw)
        with pytest.raises(FormatError) as err:
            load_task_file(path, "t")
        assert err.value.offset == 0

    def test_bad_version(self, tmp_path):
        path = self.write_good(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[4:6] = struct.pack("<H", 9)
        path.write_bytes(raw)
        with pytest.raises(FormatError) as err:
            load_task_file(path, "t")
        assert err.value.offset == 4

    def test_dimension_mismatch_with_manifest(self, tmp_path):
        path = self.write_good(tmp_path)
        with pytest.raises(FormatError) as err:
            load_task_file(path, "t", expected_dim=5)
        assert err.value.offset == 10

    def test_truncated(self, tmp_path):
        path = self.write_good(tmp_path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-3])
        with pytest.raises(FormatError):
            load_task_file(path, "t")

    def test_trailing_bytes(self, tmp_path):
        path = self.write_good(tmp_path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FormatError):
            load_task_file(path, "t")

    def test_zero_classes(self, tmp_path):
        path = tmp_path / "bad.task"
        path.write_bytes(struct.pack("<4sHII", b"LDCC", 1, 0, 2))
        with pytest.raises(FormatError) as err:
            load_task_file(path, "t")
        assert err.value.offset == 6

    def test_non_finite_payload(self, tmp_path):
        path = tmp_path / "bad.task"
        payload = struct.pack("<4sHII", b"LDCC", 1, 1, 1)
        payload += struct.pack("<I", 1) + struct.pack("<f", np.inf)
        path.write_bytes(payload)
        with pytest.raises(FormatError):
            load_task_file(path, "t")

    def three_classes(self, tmp_path):
        # Classes of 2, 3 and 4 samples in D = 2; returns the file's bytes
        # and the offsets of each class's count and samples.
        rng = np.random.default_rng(3)
        task = Task("t", [rng.normal(size=(n, 2)).astype(np.float32) for n in (2, 3, 4)])
        save_tasks(TaskCollection([task]), tmp_path)
        counts, samples, offset = [], [], 14
        for n in (2, 3, 4):
            counts.append(offset)
            samples.append(offset + 4)
            offset += 4 + 8 * n
        raw = (tmp_path / "t.task").read_bytes()
        assert len(raw) == offset
        return tmp_path / "t.task", raw, counts, samples

    def test_non_finite_offset_is_its_class(self, tmp_path):
        path, raw, _, samples = self.three_classes(tmp_path)
        for c in range(3):
            bad = bytearray(raw)
            bad[samples[c] + 4:samples[c] + 8] = struct.pack("<f", np.nan)
            path.write_bytes(bad)
            with pytest.raises(FormatError, match=f"non-finite value in class {c}") as err:
                load_task_file(path, "t")
            assert err.value.offset == samples[c]

    def test_truncation_offsets(self, tmp_path):
        path, raw, counts, samples = self.three_classes(tmp_path)
        path.write_bytes(raw[:counts[1] + 2])
        with pytest.raises(FormatError, match="count of class 1") as err:
            load_task_file(path, "t")
        assert err.value.offset == counts[1]
        path.write_bytes(raw[:samples[2] + 5])
        with pytest.raises(FormatError, match="samples of class 2") as err:
            load_task_file(path, "t")
        assert err.value.offset == samples[2]

    def test_non_finite_before_later_fault(self, tmp_path):
        # A non-finite value is reported before a fault further on in the
        # file, as a reader going front to back meets them.
        path, raw, counts, samples = self.three_classes(tmp_path)
        bad = bytearray(raw)
        bad[samples[1]:samples[1] + 4] = struct.pack("<f", -np.inf)
        for tail in (bad[:samples[2] + 5], bad + b"\x00",
                     bad[:counts[2]] + struct.pack("<I", 0) + bad[samples[2]:]):
            path.write_bytes(tail)
            with pytest.raises(FormatError, match="non-finite value in class 1") as err:
                load_task_file(path, "t")
            assert err.value.offset == samples[1]
        with pytest.raises(FormatError, match="non-finite value in class 1"):
            load_task_file(path, "")  # before the task id is checked
        path.write_bytes(raw)
        with pytest.raises(DataError, match="task id"):
            load_task_file(path, "")

    def test_manifest_not_json(self, tmp_path):
        bad = tmp_path / "manifest.json"
        bad.write_text("{nope")
        with pytest.raises(FormatError):
            load_tasks(bad)

    def test_manifest_missing_fields(self, tmp_path):
        bad = tmp_path / "manifest.json"
        bad.write_text(json.dumps({"tasks": []}))
        with pytest.raises(FormatError):
            load_tasks(bad)

    def test_latents_missing_field(self, tmp_path):
        bad = tmp_path / "latents.json"
        bad.write_text(json.dumps({"phi": [[1.0]], "y": [[0]]}))
        with pytest.raises(FormatError):
            load_latents(bad)
