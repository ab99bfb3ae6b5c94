import hashlib
import json
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import array_dirichlet, categorical, per_task_synthetic
from ldcc.cli import _random_model
from ldcc.data import (
    LatentRecord,
    Task,
    TaskCollection,
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
        with pytest.raises(DataError, match=r"duplicate task ids: \['same'\]$"):
            TaskCollection([a, b])
        tasks = [Task(f"t{i % 3}", [np.zeros((1, 2))]) for i in range(5)] + [a]
        with pytest.raises(DataError, match=r"duplicate task ids: \['t0', 't1'\]$"):
            TaskCollection(tasks)

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
        got, want = categorical(ours, p, size), numpy_s.choice(n, size, p=p)
        assert np.shape(got) == np.shape(want) and np.array_equal(got, want)
        assert ours.random() == numpy_s.random()

    @pytest.mark.parametrize("name, digest", [
        ("planted", "b051abcc56dddfa48aed4a1bb70c21535bcfb8e396822661f6d302784d4dafab"),
        ("random", "6074e377c165643e9bb18caee37491e2193965c518b5eacee9283d59250fc922"),
        ("random-100", "d6ff67c067597137350b7976a7bdabf23dcaf241d2f36c923d1a0bf2a19ea54c"),
    ])
    def test_golden_bytes(self, tmp_path, name, digest):
        # The written task files, manifest and latents of three fixed draws
        # of 12 tasks, or of 100 (5 x 16 samples each), which span three
        # chunks of 40, the last one part full.  A change to the draw order, the
        # arithmetic or the formats moves these digests; they must then be
        # re-recorded deliberately.
        if name == "planted":  # the acceptance model; delta 0.01 gives phi exact zeros
            model, seed = ThemeModel(
                np.array([[0.0, 0.0], [8.0, 0.0], [0.0, 8.0]]),
                np.stack([np.eye(2)] * 3),
                np.array([[6.0, 1.0, 1.0], [1.0, 1.0, 6.0]]),
                np.array([0.01, 0.01]),
            ), 7
        else:  # ldcc gen --random-model 3 4 4 --seed 3
            model, seed = _random_model((3, 4, 4), 0.5, 3), 3
        coll, rec = generate_synthetic(model, 100 if name == "random-100" else 12, 5, 16, seed)
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
        # Each bad count is named: below 1, a bool, or not an integer.
        for counts, name in [
            ((0, 2, 3), "num_tasks"),
            ((2, 0, 3), "num_classes"),
            ((2, 2, 0), "shots"),
            ((True, 2, 3), "num_tasks"),
            ((2.0, 2, 3), "num_tasks"),
            ((2, 2.5, 3), "num_classes"),
            ((2, 2, np.float64(3.0)), "shots"),
            ((2, np.bool_(True), 3), "num_classes"),
        ]:
            with pytest.raises(ValueError, match=f"^{name} must be an integer >= 1"):
                generate_synthetic(simple_model(), *counts, seed=0)

    def test_accepts_numpy_integer_counts(self):
        counts = (np.int64(3), np.int32(2), np.uint8(4))
        got = generate_synthetic(simple_model(), *counts, 5)
        want = generate_synthetic(simple_model(), 3, 2, 4, 5)
        assert got[0] == want[0] and got[1] == want[1]

    @pytest.mark.parametrize("entries", [1, 2**16])
    def test_non_finite_samples_name_the_task(self, monkeypatch, entries):
        # A mean beyond float32's range rounds to inf.  The first task that
        # draws it is named, in a chunk of its own or in one of all 40.
        model = ThemeModel(np.array([[0.0], [1e39]]), np.ones((2, 1, 1)),
                           np.array([[1.0, 0.02]]), np.ones(1))
        monkeypatch.setattr("ldcc.data._CHUNK_ENTRIES", entries)
        with np.errstate(over="ignore"), pytest.raises(
                DataError, match=r"^task 'task_00003': sample values must be finite"):
            generate_synthetic(model, 40, 2, 3, seed=1)

    @pytest.mark.parametrize("D", [128, 256])
    def test_memory_stays_within_the_chunk_bound(self, D):
        # One task of 5 x 16 samples holds more than _CHUNK_ENTRIES entries
        # of Cholesky factors (C N D^2), so it is computed in slices of
        # samples, one slice's factors alive at a time: the peak is 0.76
        # and 0.99 MB for 0.16 and 0.31 MB of float32 output, where
        # gathering the whole task's factors took 10.4 and 40.7 MB.
        rng = np.random.default_rng(0)
        a = rng.standard_normal((4, D, D)) / np.sqrt(D)
        model = ThemeModel(rng.standard_normal((4, D)), a @ a.transpose(0, 2, 1) + np.eye(D),
                           rng.uniform(0.5, 2.0, (2, 4)), np.full(2, 0.5))
        tracemalloc.start()
        try:
            generate_synthetic(model, 4, 5, 16, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * 2**20

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_chunks_write_the_per_task_bytes(self, data):
        # The chunked generator against the per-task oracle, byte for byte:
        # every task's samples and the latents.  The chunk is patched small,
        # so a collection spans three or more chunks and ends mid-chunk, or
        # below one task's C N D^2, so that slices of samples cut a task;
        # tiny alpha forces theta redraws, and delta 0.01 gives phi exact
        # zeros.
        draw = data.draw
        L, K, D = draw(st.integers(1, 5)), draw(st.integers(1, 32)), draw(st.integers(1, 16))
        C, N = draw(st.integers(1, 6)), draw(st.integers(1, 20))
        per_chunk = draw(st.integers(1, 4))
        M = draw(st.integers(2 * per_chunk + 1, 3 * per_chunk + 2))
        if M % per_chunk == 0:
            M += 1
        delta = draw(st.sampled_from([0.01, 0.5, 2.0]))
        scale = draw(st.sampled_from([1e-3, 0.05, 1.0]))
        seed = draw(st.integers(0, 2**64 - 1))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        a = rng.standard_normal((K, D, D))
        model = ThemeModel(4.0 * rng.standard_normal((K, D)), a @ a.transpose(0, 2, 1) + np.eye(D),
                           scale * rng.uniform(0.5, 2.0, (L, K)), np.full(L, delta))
        with pytest.MonkeyPatch.context() as patch:
            task_entries = C * N * (K + D * D)
            extra = draw(st.integers(0, task_entries - 1))
            if draw(st.booleans()):  # slices of 1 to C N - 1 samples
                slice_samples = draw(st.integers(1, max(1, C * N - 1)))
                patch.setattr("ldcc.data._CHUNK_ENTRIES", slice_samples * D * D)
            else:
                patch.setattr("ldcc.data._CHUNK_ENTRIES", per_chunk * task_entries + extra)
            coll, rec = generate_synthetic(model, M, C, N, seed)
        want_coll, want_rec = per_task_synthetic(model, M, C, N, seed)
        assert coll.ids == want_coll.ids
        for got, want in zip(coll, want_coll):
            assert [b.tobytes() for b in got.classes] == [b.tobytes() for b in want.classes]
        for name in ("phi", "y", "z"):
            got, want = getattr(rec, name), getattr(want_rec, name)
            assert (got.dtype, got.shape) == (want.dtype, want.shape)
            assert got.tobytes() == want.tobytes()


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

    def collection(self, tmp_path, tasks=7):
        # Tasks of 5 classes of 4 samples in D = 2: class c's samples start
        # at byte 18 + 36 c of each 194-byte file.
        coll, _ = generate_synthetic(simple_model(), tasks, 5, 4, seed=3)
        return coll, save_tasks(coll, tmp_path)

    def file_error(self, path, task_id):
        # The error load_task_file raises for one file, and what load_tasks
        # makes of it: the task and the path in front of the same message.
        with pytest.raises((FormatError, DataError)) as err:
            load_task_file(path, task_id, expected_dim=2)
        return type(err.value), f"task {task_id!r} ({path}): {err.value}", err.value.offset

    def load_error(self, manifest):
        with pytest.raises((FormatError, DataError)) as err:
            load_tasks(manifest)
        return type(err.value), str(err.value), getattr(err.value, "offset", None)

    def test_load_names_the_task_file(self, tmp_path):
        _, manifest = self.collection(tmp_path)
        path = tmp_path / "task_00003.task"
        path.write_bytes(path.read_bytes()[:14 + 36 * 4 + 9])
        want = self.file_error(path, "task_00003")
        assert self.load_error(manifest) == want
        assert want[1] == (f"task 'task_00003' ({path}): truncated task file while reading "
                           "samples of class 4 (byte offset 162)")

    def test_fault_order_across_files(self, tmp_path):
        # Task 2 holds a NaN in class 1 and task 4 is truncated: task 2's
        # fault is raised, at its offset.
        _, manifest = self.collection(tmp_path)
        nan, cut = tmp_path / "task_00002.task", tmp_path / "task_00004.task"
        raw = bytearray(nan.read_bytes())
        raw[54 + 4:54 + 8] = struct.pack("<f", np.nan)
        nan.write_bytes(raw)
        cut.write_bytes(cut.read_bytes()[:100])
        got = self.load_error(manifest)
        assert got == self.file_error(nan, "task_00002")
        assert got[0] is FormatError and got[2] == 54 and "non-finite value in class 1" in got[1]

    def test_non_finite_in_the_last_task(self, tmp_path):
        # An infinity only in the last task of the collection.
        _, manifest = self.collection(tmp_path)
        path = tmp_path / "task_00006.task"
        raw = bytearray(path.read_bytes())
        raw[18 + 36 * 4 + 12:18 + 36 * 4 + 16] = struct.pack("<f", -np.inf)
        path.write_bytes(raw)
        got = self.load_error(manifest)
        assert got == self.file_error(path, "task_00006")
        assert got[2] == 18 + 36 * 4 and "non-finite value in class 4" in got[1]

    def test_missing_file_and_empty_id(self, tmp_path):
        # The errors of the in-order reader: the first faulty entry raises.
        _, manifest = self.collection(tmp_path, tasks=3)
        doc = json.loads(manifest.read_text())
        doc["tasks"][1]["id"] = ""
        doc["tasks"][2]["path"] = "missing.task"
        manifest.write_text(json.dumps(doc))
        with pytest.raises(DataError, match=r"^task '' \(.*task_00001\.task\): task id must be"):
            load_tasks(manifest)
        doc["tasks"][1]["id"] = "task_00001"
        manifest.write_text(json.dumps(doc))
        with pytest.raises(FileNotFoundError, match="missing.task"):
            load_tasks(manifest)
        (tmp_path / "folder.task").mkdir()
        doc["tasks"][2]["path"] = "folder.task"
        manifest.write_text(json.dumps(doc))
        with pytest.raises(OSError, match="folder.task"):  # the OS error names the path
            load_tasks(manifest)

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
