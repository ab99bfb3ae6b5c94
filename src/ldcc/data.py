"""Task containers, the on-disk task format, and the synthetic generator.

A task is a few-shot classification episode: C classes, each holding N_c
feature vectors of a shared dimension D.  Collections are stored as one
little-endian binary file per task plus a JSON manifest:

    magic 'LDCC' (4 bytes) | version u16 = 1 | C u32 | D u32
    then per class: N_c u32 | N_c * D float32, row-major

Feature blocks are kept as float32 in memory, mirroring the file format, so
save/load round-trips are bit-exact.  Numerical work promotes them to
float64 through `stack_samples`.  Each task file is written with one write and
read with one read, and a loaded task's values are checked for finiteness
once; an error in a task file names the task and its path (`load_tasks`).
The generator draws task by task and computes chunk by chunk
(`generate_synthetic`): it takes each chunk's stream keys at once
(`streams.task_keys`), checks the chunk's samples for finiteness in one call
and builds its tasks with `Task._checked`.  Its Dirichlet draws are one
scalar `standard_gamma` call per entry (`_gammas`): the same values and
stream position as numpy's array call, without its argument checks.  Its
categorical draws are numpy's `Generator.choice` algorithm: a cdf scaled to
end at 1 (`_cdf`), searched on the right.

Every CSV artifact (lambdas, distances, accuracies, diagrams, training logs)
is one table format, written and read by `write_table` and `read_table`: a
header row, then UTF-8 rows with "\n" line ends, a unique key in the first
column and floats written at full precision as `repr(float(v))`.
"""

from __future__ import annotations

import csv
import json
import os
import struct
from bisect import bisect_right
from collections import Counter
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

import numpy as np

from .errors import DataError, FormatError
from .streams import set_key, task_keys, task_stream

if TYPE_CHECKING:
    from .model import ThemeModel

_MAGIC = b"LDCC"
_VERSION = 1
_HEADER = struct.Struct("<4sHII")
_COUNT = struct.Struct("<I")


class Task:
    """One classification episode: per-class sample blocks of equal width."""

    def __init__(self, task_id: str, classes: Iterable[np.ndarray]):
        if not isinstance(task_id, str) or not task_id:
            raise DataError("task id must be a non-empty string")
        blocks = []
        for block in classes:
            arr = np.ascontiguousarray(block, dtype=np.float32)
            if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
                raise DataError(f"task {task_id!r}: each class needs a non-empty 2-d sample block")
            blocks.append(arr)
        if not blocks:
            raise DataError(f"task {task_id!r}: at least one class required")
        if not np.isfinite(np.concatenate(blocks, axis=None)).all():
            raise DataError(f"task {task_id!r}: sample values must be finite")
        widths = {b.shape[1] for b in blocks}
        if len(widths) != 1:
            raise DataError(f"task {task_id!r}: classes disagree on dimension {widths}")
        self._fill(task_id, tuple(blocks))

    @classmethod
    def _checked(cls, task_id: str, blocks: tuple) -> "Task":
        """A task whose caller has made every check of `__init__`: a non-empty
        id, and a tuple of C-contiguous float32 (N_c, D) blocks with N_c,
        D >= 1 and finite values."""
        task = cls.__new__(cls)
        task._fill(task_id, blocks)
        return task

    def _fill(self, task_id, blocks):
        self.id = task_id
        self.classes = blocks
        self.counts = tuple(b.shape[0] for b in blocks)
        self.total_samples = sum(self.counts)

    @property
    def dimension(self) -> int:
        return self.classes[0].shape[1]

    @property
    def num_classes(self) -> int:
        return len(self.classes)

    def __eq__(self, other):
        return (
            isinstance(other, Task)
            and self.id == other.id
            and len(self.classes) == len(other.classes)
            and all(np.array_equal(a, b) for a, b in zip(self.classes, other.classes))
        )

    def __repr__(self):
        return f"Task(id={self.id!r}, C={self.num_classes}, D={self.dimension})"


def stack_samples(tasks) -> np.ndarray:
    """The tasks' samples as one float64 (rows, D) array, task by task and
    class by class; exact, as every float32 is a float64."""
    if not tasks:
        raise DataError("the task list is empty")
    dims = {task.dimension for task in tasks}
    if len(dims) > 1:
        raise DataError(f"tasks disagree on feature dimension: {sorted(dims)}")
    return np.concatenate([c for task in tasks for c in task.classes], dtype=np.float64)


class TaskCollection:
    """An ordered set of tasks sharing one feature dimension, with unique ids."""

    def __init__(self, tasks: Iterable[Task]):
        tasks = list(tasks)
        if not tasks:
            raise DataError("a task collection cannot be empty")
        dims = {t.dimension for t in tasks}
        if len(dims) != 1:
            raise DataError(f"tasks disagree on feature dimension: {sorted(dims)}")
        ids = [t.id for t in tasks]
        if len(set(ids)) != len(ids):
            dupes = sorted(i for i, n in Counter(ids).items() if n > 1)
            raise DataError(f"duplicate task ids: {dupes}")
        self.tasks = tasks
        self.dimension = tasks[0].dimension

    def __len__(self):
        return len(self.tasks)

    def __iter__(self):
        return iter(self.tasks)

    def __getitem__(self, index) -> Task:
        return self.tasks[index]

    @property
    def ids(self) -> list[str]:
        return [t.id for t in self.tasks]

    def __eq__(self, other):
        return (
            isinstance(other, TaskCollection)
            and len(self) == len(other)
            and all(a == b for a, b in zip(self.tasks, other.tasks))
        )


class LatentRecord:
    """Ground-truth latents emitted alongside synthetic tasks.

    phi: (M, L) task-theme mixtures; y: (M, C) class theme assignments;
    z: (M, C, N) per-sample image-theme assignments.
    """

    def __init__(self, phi, y, z):
        self.phi = np.asarray(phi, dtype=np.float64)
        self.y = np.asarray(y, dtype=np.int64)
        self.z = np.asarray(z, dtype=np.int64)
        if not (np.array_equal(self.y, y) and np.array_equal(self.z, z)):
            raise DataError("latent record y and z must hold integers")
        if self.phi.ndim != 2 or self.y.ndim != 2 or self.z.ndim != 3:
            raise DataError("latent record arrays have wrong rank")
        if not (self.phi.shape[0] == self.y.shape[0] == self.z.shape[0]):
            raise DataError("latent record arrays disagree on task count")
        if self.y.shape[1] != self.z.shape[1]:
            raise DataError("latent record arrays disagree on class count")
        sums = self.phi.sum(axis=1)
        if (self.phi < 0).any() or not np.allclose(sums, 1.0, atol=1e-9):
            raise DataError("phi rows must lie on the simplex")

    @property
    def task_themes(self) -> np.ndarray:
        """Dominant task theme per task (argmax of phi)."""
        return self.phi.argmax(axis=1)

    def __eq__(self, other):
        return (
            isinstance(other, LatentRecord)
            and np.array_equal(self.phi, other.phi)
            and np.array_equal(self.y, other.y)
            and np.array_equal(self.z, other.z)
        )


def _gammas(rng: np.random.Generator, concentration) -> list[float]:
    """Independent gamma draws, entry by entry: a scalar `standard_gamma`
    call per concentration (a sequence of floats) gives the values and the
    stream position of one `standard_gamma(array)` call without its array
    argument checks."""
    # With very small concentrations the draws can all underflow to zero;
    # redraw rather than normalize by zero.
    draw = rng.standard_gamma
    for _ in range(100):
        g = [draw(a) for a in concentration]
        if any(g):
            return g
    raise DataError("dirichlet sampling underflowed repeatedly; concentration too small")


def _dirichlet(rng: np.random.Generator, concentration) -> np.ndarray:
    """A Dirichlet draw: `_gammas` normalized by their sum."""
    g = np.array(_gammas(rng, concentration))
    return g / g.sum()


def _cdf(p: np.ndarray) -> np.ndarray:
    """The cumulative sums of each normalized row of p, scaled to end at 1,
    as `Generator.choice` builds them."""
    cdf = p.cumsum(axis=-1)
    cdf /= cdf[..., -1:]
    return cdf


# The most entries of its largest temporaries that a chunk of
# `generate_synthetic` holds: each sample's K cdf comparisons and, per slice
# of samples, its gathered D x D Cholesky factor.  A count would not bound them.
_CHUNK_ENTRIES = 2**16


def generate_synthetic(
    model: "ThemeModel", num_tasks: int, num_classes: int, shots: int, seed: int
) -> tuple[TaskCollection, LatentRecord]:
    """Sample tasks from the generative process.

    For each task: a task-theme mixture phi ~ Dir(delta); for each class a
    theme y ~ Cat(phi) and an image-theme mixture theta ~ Dir(alpha_y); for
    each of `shots` samples an image theme z ~ Cat(theta) and a feature
    vector x ~ N(mu_z, Sigma_z).  The counts are integers >= 1 (a bool is
    refused).

    Each task draws from its own counter-based stream keyed by (seed, task
    index), in the order phi, then per class y, theta, z and the noise, so
    generation is order-independent and parallelizable.  One generator is
    set to each task's key in turn, the chunk's keys derived at once
    (`streams.task_keys`).  Only the draws run task by task: phi with its
    cdf and y, theta's raw gammas, z's uniforms and the noise, the last
    two written into the buffers of a chunk of tasks (one task, or as many
    as keep the chunk within `_CHUNK_ENTRIES`).
    The arithmetic on them runs once per chunk: theta's normalization and
    cdf, z (the count of cdf entries <= its uniform, as `Generator.choice`
    finds it), x = mu_z + chol_z eps, rounded to float32 in place slice by
    slice within `_CHUNK_ENTRIES`, and the check that x is finite.
    """
    for name, value in (("num_tasks", num_tasks), ("num_classes", num_classes), ("shots", shots)):
        if type(value) is bool or not isinstance(value, (int, np.integer)) or value < 1:
            raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
    M, C, N, L, D = int(num_tasks), int(num_classes), int(shots), model.L, model.D
    delta, alpha = model.delta.tolist(), model.alpha.tolist()
    per_chunk = max(1, _CHUNK_ENTRIES // (C * N * (model.K + D * D)))
    per_slice = max(1, _CHUNK_ENTRIES // (D * D))
    phis = np.empty((M, L))
    ys = np.empty((M, C), dtype=np.int64)
    zs = np.empty((M, C, N), dtype=np.int64)
    u = np.empty((per_chunk * C, N))
    eps = np.empty((per_chunk * C, N, D))
    tasks = []
    rng = task_stream(seed, 0)
    for start in range(0, M, per_chunk):
        stop = min(start + per_chunk, M)
        gammas, row = [], 0
        for d, key in enumerate(task_keys(seed, start, stop), start):
            set_key(rng, key)
            phis[d] = _dirichlet(rng, delta)
            phi_cdf = _cdf(phis[d]).tolist()
            for c in range(C):
                ys[d, c] = y = bisect_right(phi_cdf, rng.random())
                gammas.append(_gammas(rng, alpha[y]))
                rng.random(out=u[row])
                rng.standard_normal(out=eps[row])
                row += 1
        g = np.array(gammas)
        cdf = _cdf(g / g.sum(axis=-1, keepdims=True))
        z = (cdf[:, None, :] <= u[:row, :, None]).sum(axis=-1)
        zs[start:stop] = z.reshape(-1, C, N)
        z, noise = z.reshape(-1), eps[:row].reshape(-1, D)
        x = np.empty((len(z), D), dtype=np.float32)
        for b in (slice(a, a + per_slice) for a in range(0, len(z), per_slice)):
            # One slice's factors at a time; take is twice as fast as fancy indexing here.
            x[b] = model.mu.take(z[b], axis=0) + np.einsum(
                "nij,nj->ni", model.chol_factors.take(z[b], axis=0), noise[b])
        x = x.reshape(-1, C, N, D)
        make = Task._checked if np.isfinite(x).all() else Task  # which raises, naming the task
        tasks += [make(f"task_{d:05d}", tuple(x[d - start])) for d in range(start, stop)]
    return TaskCollection(tasks), LatentRecord(phis, ys, zs)


def save_tasks(collection: TaskCollection, out_dir) -> Path:
    """Write one binary file per task plus manifest.json; returns the manifest path."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    base = str(out_dir)
    entries = []
    for task in collection:
        filename = f"{task.id}.task"
        parts = [_HEADER.pack(_MAGIC, _VERSION, task.num_classes, task.dimension)]
        for block in task.classes:
            parts += [_COUNT.pack(block.shape[0]), np.ascontiguousarray(block, dtype="<f4").tobytes()]
        with open(os.path.join(base, filename), "wb") as fh:
            fh.write(b"".join(parts))
        entries.append({"id": task.id, "path": filename})
    manifest_path = out_dir / "manifest.json"
    manifest = {"dimension": collection.dimension, "tasks": entries}
    manifest_path.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    return manifest_path


def load_task_file(path, task_id: str, expected_dim=None) -> Task:
    """Parse one binary task file, read whole; class blocks are views of its bytes."""
    with open(path, "rb") as fh:
        buf = fh.read()
    blocks, starts = [], []

    def fail(message, offset=None):
        # A front-to-back reader meets a non-finite value already read first.
        for c, block in enumerate(blocks):
            if not np.isfinite(block).all():
                return FormatError(f"non-finite value in class {c}", starts[c])
        return message and FormatError(message, offset)

    if len(buf) < _HEADER.size:
        raise FormatError("truncated task file while reading header", 0)
    magic, version, num_classes, dim = _HEADER.unpack_from(buf)
    if magic != _MAGIC:
        raise FormatError(f"bad magic {magic!r}, expected {_MAGIC!r}", 0)
    if version != _VERSION:
        raise FormatError(f"unsupported version {version}, expected {_VERSION}", 4)
    if num_classes < 1:
        raise FormatError("class count must be >= 1", 6)
    if dim < 1:
        raise FormatError("dimension must be >= 1", 10)
    if expected_dim is not None and dim != expected_dim:
        raise FormatError(f"dimension {dim} does not match manifest dimension {expected_dim}", 10)
    offset = _HEADER.size
    for c in range(num_classes):
        if len(buf) < offset + _COUNT.size:
            raise fail(f"truncated task file while reading count of class {c}", offset)
        (n_c,) = _COUNT.unpack_from(buf, offset)
        if n_c < 1:
            raise fail(f"class {c} sample count must be >= 1", offset)
        offset += _COUNT.size
        if len(buf) < offset + 4 * n_c * dim:
            raise fail(f"truncated task file while reading samples of class {c}", offset)
        blocks.append(np.frombuffer(buf, "<f4", n_c * dim, offset).reshape(n_c, dim))
        starts.append(offset)
        offset += 4 * n_c * dim
    if len(buf) > offset:
        raise fail("trailing bytes after final class block", offset)
    try:
        return Task(task_id, blocks)  # checks every value once
    except DataError as exc:  # a non-finite value, or a bad task id
        raise fail(None) or exc


def read_json_object(path, what, fields, error):
    """The JSON object in a UTF-8 file; `error` (an exception type) is raised,
    naming `what`, unless the file decodes to an object holding `fields`."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
        raise error(f"{what} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise error(f"{what} must be a JSON object")
    for key in fields:
        if key not in payload:
            raise error(f"{what} missing field {key!r}")
    return payload


def is_json_int(value) -> bool:
    """Whether a decoded JSON value is an integer: true and 1.0 are not."""
    return type(value) is int


def load_tasks(manifest_path) -> TaskCollection:
    """Load a collection from its manifest, file by file.  An error raised
    for a task file names the task and the path before its message."""
    manifest = read_json_object(manifest_path, "manifest", ("dimension", "tasks"), FormatError)
    base = os.path.dirname(os.fspath(manifest_path))
    if not isinstance(manifest["tasks"], list):
        raise FormatError("manifest 'tasks' must be a list")
    dim = manifest["dimension"]
    if not is_json_int(dim) or dim < 1:
        raise FormatError(f"manifest dimension must be a positive integer, got {dim!r}")
    tasks = []
    for entry in manifest["tasks"]:
        if not (isinstance(entry, dict) and isinstance(entry.get("id"), str)
                and isinstance(entry.get("path"), str)):
            raise FormatError(f"manifest task entries need string 'id' and 'path': {entry!r}")
        path = os.path.join(base, entry["path"])
        try:
            tasks.append(load_task_file(path, entry["id"], expected_dim=dim))
        except (FormatError, DataError) as exc:
            exc.args = (f"task {entry['id']!r} ({path}): {exc}",)
            raise
    return TaskCollection(tasks)


def save_latents(record: LatentRecord, path) -> None:
    payload = {
        "phi": record.phi.tolist(),
        "y": record.y.tolist(),
        "z": record.z.tolist(),
    }
    Path(path).write_text(json.dumps(payload) + "\n", encoding="utf-8")


def load_latents(path) -> LatentRecord:
    payload = read_json_object(path, "latent record", ("phi", "y", "z"), FormatError)
    return LatentRecord(payload["phi"], payload["y"], payload["z"])


def write_table(path, header, rows) -> None:
    """Write a CSV table; float cells (np.float64 included) as repr(float(v))."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(
            [repr(float(v)) if isinstance(v, float) else v for v in row] for row in rows
        )


def read_table(path, header_ok, describe) -> list[tuple[int, str, list[float]]]:
    """Read a CSV table as (line_no, key, floats) rows, skipping blank lines.

    header_ok(header) must accept the header row (describe names the
    expected one in the error).  Each row must be as wide as the header and
    hold numbers after its key, and no key may repeat; a file without data
    rows is malformed.
    """
    path = Path(path)
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None or not header_ok(header):
                raise FormatError(f"{path}: expected header {describe}")
            rows, keys = [], set()
            for line_no, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != len(header):
                    raise FormatError(f"{path}:{line_no}: expected {len(header)} fields")
                try:
                    rows.append((line_no, row[0], [float(v) for v in row[1:]]))
                except ValueError as exc:
                    raise FormatError(f"{path}:{line_no}: {exc}") from exc
                if row[0] in keys:
                    raise FormatError(f"{path}:{line_no}: duplicate task id {row[0]!r}")
                keys.add(row[0])
        except (UnicodeDecodeError, csv.Error) as exc:
            raise FormatError(f"{path}: not a CSV table: {exc}") from exc
    if not rows:
        raise FormatError(f"{path}: no data rows")
    return rows
