"""The three benchmark workloads and their output checks.

Each workload function takes a RunContext and returns a WorkloadResult: the
operations' speed-adjusted and wall times (speed.py), the workload's own
named metrics, and, in a traced run, the traced-over-untraced wall-time pair
used for the tracing overhead.
README.md beside this file says why each workload exists.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import statistics
import time
import traceback
from contextlib import contextmanager, redirect_stdout
from dataclasses import dataclass, field
from itertools import permutations
from pathlib import Path

import numpy as np
from scipy.special import gammaln, psi

import ldcc.cli as cli
import ldcc.data as data
import ldcc.inference as inference
import ldcc.learning as learning
import ldcc.similarity as similarity
from ldcc.model import ThemeModel, TrainConfig, save_model

# train-planted: the acceptance collection of test_synthetic_recovery.  Five
# batches keep batches 3-5, where most E-steps run to max_e_iters; the
# default 100 batches would take about two minutes.
PLANTED_SEED = 7
PLANTED_BATCHES = 5
TRAIN_SAMPLE_S = 1.0  # speed samples while train() runs
# query-select
QUERY_MODEL_SEED = 0
QUERY_POOL = 2000
QUERY_BANK = 128
QUERY_MIN = 110  # p90 then has at least 10 samples beyond it
QUERY_CHECK_EVERY = 10
SELECT_COUNT = 25
# cli-pipeline
CLI_TASKS = 400
CLI_MAX_BATCHES = 8
CLI_MIN_PIPELINES = 2
CLI_TEST_ROWS = 50

TIE_RTOL = 1e-9
SETUP_REPEATS = 5


class CheckFailed(Exception):
    pass


def check(ok, message):
    if not ok:
        raise CheckFailed(message)


@dataclass
class RunContext:
    seed: int
    seconds: float
    tracer: object | None  # a Tracer in traced runs
    work_dir: Path
    store: "DigestStore"
    threads_arg: list
    probe: "SpeedProbe"
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def fail(self, what, problem):
        self.failed += 1
        if isinstance(problem, BaseException):
            problem = "".join(traceback.format_exception_only(type(problem), problem)).strip()
        self.problems.append(f"{what}: {problem}")

    def attempt(self, what, fn, *args):
        """Run one operation; an exception or failed check counts as failed."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # every failure is counted, the run goes on
            self.fail(what, exc)
            return None

    @contextmanager
    def scope(self, name, traced):
        """Trace the block as operation `name` when traced is true."""
        if not traced:
            yield
            return
        with self.tracer.installed(), self.tracer.operation(name):
            yield


@dataclass
class WorkloadResult:
    op_adjusted_seconds: list  # at the reference speed
    op_seconds: list  # wall time
    named: dict  # name -> (value, unit)
    overhead_pair: tuple | None = None  # (traced s, untraced s)
    extra: dict = field(default_factory=dict)


class DigestStore:
    """Output digests shared by the runs made in one checkout.

    Keyed by a fingerprint of the package and benchmark sources, so two
    runs with the same code and seed must write byte-identical outputs.
    """

    def __init__(self, path, *source_dirs):
        self.path = Path(path)
        h = hashlib.sha256()
        for d in source_dirs:
            for f in sorted(Path(d).rglob("*.py")):
                h.update(f.relative_to(d).as_posix().encode())
                h.update(f.read_bytes())
        self.fingerprint = h.hexdigest()[:16]

    def agree(self, key, payload: bytes):
        """True unless an earlier run stored a different digest for key."""
        digest = hashlib.sha256(payload).hexdigest()
        table = json.loads(self.path.read_text()) if self.path.exists() else {}
        full_key = f"{self.fingerprint}:{key}"
        earlier = table.setdefault(full_key, digest)
        self.path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
        return earlier == digest


def timed_loop(ctx, what, op, min_ops, budget):
    """Run op(i) until budget seconds would be exceeded, at least min_ops times."""
    seconds = []
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        ctx.attempt(f"{what} {len(seconds)}", op, len(seconds))
        seconds.append(time.perf_counter() - t)
        elapsed = time.perf_counter() - start
        if len(seconds) >= min_ops and elapsed + statistics.median(seconds) > budget:
            return seconds


def median_setup(ctx, fn, repeats):
    """fn's value and the median speed-adjusted and wall seconds of repeats calls."""
    adjusted, wall, value = [], [], None
    for _ in range(repeats):
        value, timing = ctx.probe.measure(fn)
        adjusted.append(timing.adjusted)
        wall.append(timing.wall)
    return value, statistics.median(adjusted), statistics.median(wall)


# -- closed-form KL oracle ----------------------------------------------------

def _log_beta(rows):
    return gammaln(rows).sum(axis=1) - gammaln(rows.sum(axis=1))


def kl_matrix(test, train):
    """KL[Dir(test_i) || Dir(train_d)] for every pair, as one GEMM."""
    e = psi(test) - psi(test.sum(axis=1))[:, None]
    return (_log_beta(train)[None, :] - _log_beta(test)[:, None]
            + (test * e).sum(axis=1)[:, None] - e @ train.T)


def check_selection(chosen, train, test, count):
    """chosen must be the count lowest mean-KL rows, up to ties within TIE_RTOL."""
    scores = kl_matrix(np.asarray(test), np.asarray(train)).mean(axis=0)
    order = np.lexsort((np.arange(scores.size), scores))[:count]
    chosen = np.asarray(chosen, dtype=int)
    check(chosen.size == count and np.unique(chosen).size == count,
          f"selection has {chosen.size} ids, {np.unique(chosen).size} distinct; expected {count}")
    want, got = scores[order], scores[chosen]
    bad = np.abs(got - want) > TIE_RTOL * np.maximum(np.abs(want), 1.0)
    check(not bad.any(), f"selection differs from the KL oracle at ranks {np.flatnonzero(bad)[:5].tolist()}")


def _finite(*arrays):
    return all(np.isfinite(np.asarray(a, dtype=np.float64)).all() for a in arrays)


# -- train-planted ------------------------------------------------------------

def planted_model():
    return ThemeModel(
        np.array([[0.0, 0.0], [8.0, 0.0], [0.0, 8.0]]),
        np.stack([np.eye(2)] * 3),
        np.array([[6.0, 1.0, 1.0], [1.0, 1.0, 6.0]]),
        np.array([0.01, 0.01]),
    )


def train_planted(ctx):
    # The inputs are the same for every seed.  Training here sits at a
    # tipping point: redrawing the features moves the capped batches by
    # several batches, and even renaming the tasks, which re-keys their
    # E-step noise, changed the work by a quarter (179 against 230 sweeps
    # per task over five batches).  A seed-driven input would make train_s
    # measure the draw rather than the code.
    def setup():
        collection, _ = data.generate_synthetic(planted_model(), 200, 5, 16, seed=PLANTED_SEED)
        return collection

    if ctx.tracer:
        with ctx.tracer.installed():
            tasks, setup_s = setup(), None
    else:
        tasks, setup_s, setup_wall_s = median_setup(ctx, setup, SETUP_REPEATS)
    config = TrainConfig(seed=0, max_batches=PLANTED_BATCHES)
    outputs = []

    def op(i):
        traced = ctx.tracer is not None and i == 1
        with ctx.scope("op.train", traced):
            # train() runs on this thread alone, so the speed is also
            # sampled on a timer while it runs.
            (model, rows), timing = ctx.probe.measure(
                lambda: learning.train(tasks, 2, 3, config, threads=1), interval=TRAIN_SAMPLE_S)
        check(len(rows) == PLANTED_BATCHES, f"{len(rows)} log rows, expected {PLANTED_BATCHES}")
        check(_finite(model.mu, model.sigma, model.alpha, model.delta), "model has non-finite values")
        check(_finite([[r.rho, r.mean_elbo, r.alpha_min, r.alpha_max, r.estep_iters_mean] for r in rows]),
              "training log has non-finite values")
        save_model(model, ctx.work_dir / "model.json")
        learning.write_training_log(ctx.work_dir / "training_log.csv", rows)
        payload = (ctx.work_dir / "model.json").read_bytes() + (ctx.work_dir / "training_log.csv").read_bytes()
        outputs.append((timing, model, rows, payload))
        check(payload == outputs[0][3], "model/log bytes differ between train() calls of this run")
        check(ctx.store.agree("train-planted", payload),
              "model/log bytes differ from an earlier run")

    if ctx.tracer:
        # One untraced then one traced call of the same work.
        for i in range(2):
            ctx.attempt(f"train {i}", op, i)
        attempts = []
    else:
        attempts = timed_loop(ctx, "train", op, 1, ctx.seconds)
    train_seconds = [o[0].wall for o in outputs] or attempts or [0.0]
    train_adjusted = [o[0].adjusted for o in outputs] or train_seconds
    named = {"train_s": (statistics.median(train_seconds), "s"),
             "train_adjusted_s": (statistics.median(train_adjusted), "s")}
    if outputs:
        _, model, rows, _ = outputs[-1]
        named["recovery_mu_err"] = (_recovery_error(planted_model().mu, model.mu), "feature units")
        named["final_mean_elbo"] = (rows[-1].mean_elbo, "nats")
        named["sweeps_per_task"] = (sum(r.estep_iters_mean for r in rows), "count")
    if setup_s is not None:
        named["setup_s"] = (setup_s, "s")
        named["setup_wall_s"] = (setup_wall_s, "s")
    pair = (train_seconds[1], train_seconds[0]) if ctx.tracer and len(train_seconds) == 2 else None
    return WorkloadResult(train_adjusted, train_seconds, named, pair, {"max_batches": PLANTED_BATCHES})


def _recovery_error(planted_mu, mu):
    """Largest planted-to-trained mean distance under the best matching."""
    best = min(permutations(range(len(mu))),
               key=lambda p: sum(np.linalg.norm(planted_mu[k] - mu[p[k]]) for k in range(len(mu))))
    return max(float(np.linalg.norm(planted_mu[k] - mu[best[k]])) for k in range(len(mu)))


# -- query-select -------------------------------------------------------------

def random_model(rng):
    """The CLI's --random-model recipe for L=4, K=6, D=8: means 4 x N(0, 1),
    identity covariances, alpha rows uniform in [0.5, 2], delta 0.5."""
    L, K, D, delta = 4, 6, 8, 0.5
    mu = 4.0 * rng.standard_normal((K, D))
    sigma = np.broadcast_to(np.eye(D), (K, D, D)).copy()
    alpha = rng.uniform(0.5, 2.0, (L, K))
    return ThemeModel(mu, sigma, alpha, np.full(L, delta))


def sample_pool(rng, model, size, classes):
    """lambda rows from the generative process: delta plus, per class, a
    near-one-hot weight on a task theme drawn from phi ~ Dir(delta)."""
    L = model.L
    phi = rng.dirichlet(model.delta, size)
    u = rng.random((size, classes))
    themes = (u[:, :, None] > np.cumsum(phi, axis=1)[:, None, :]).sum(axis=2).clip(max=L - 1)
    eta = np.eye(L)[themes]
    spill = rng.uniform(0.0, 0.1, (size, classes, 1))
    eta = (1.0 - spill) * eta + spill * rng.dirichlet(np.ones(L), (size, classes))
    return model.delta + eta.sum(axis=1)


def query_select(ctx):
    def setup():
        # The model is the same for every seed, so the spread of E-step
        # lengths, which sets query_ms_p90, belongs to the code; the seed
        # draws the query tasks and the pool.
        model = random_model(np.random.default_rng(QUERY_MODEL_SEED))
        queries, _ = data.generate_synthetic(model, QUERY_BANK, 5, 16, seed=ctx.seed)
        return model, queries, sample_pool(np.random.default_rng([ctx.seed, 11]), model, QUERY_POOL, 5)

    if ctx.tracer:
        with ctx.tracer.installed():
            (model, queries, pool), setup_s = setup(), None
    else:
        (model, queries, pool), setup_s, setup_wall_s = median_setup(ctx, setup, SETUP_REPEATS)
    config = TrainConfig(seed=0)
    expected_mass = model.delta.sum() + 5
    latency = {False: [], True: []}
    adjusted = []  # untraced queries only

    def op(i):
        # A traced run alternates untraced and traced queries.
        traced = ctx.tracer is not None and i % 2 == 1
        task = queries[i % QUERY_BANK]

        def query():
            lam = inference.run_estep(task, model, config).lam
            return lam, similarity.select_tasks(pool, lam[None, :], SELECT_COUNT)

        with ctx.scope("op.query", traced):
            (lam, chosen), timing = ctx.probe.measure(query)
        latency[traced].append(timing.wall)
        if not traced:
            adjusted.append(timing.adjusted)
        if i % QUERY_CHECK_EVERY == 0:
            check(_finite(lam) and (lam > 0).all(), "query lambda is not positive and finite")
            check(abs(lam.sum() - expected_mass) <= 1e-9 * expected_mass,
                  f"query lambda mass {lam.sum()} != delta mass + classes {expected_mass}")
            check_selection(chosen, pool, lam[None, :], SELECT_COUNT)

    attempts = timed_loop(ctx, "query", op, QUERY_MIN, ctx.seconds)
    plain = latency[False] or attempts
    adjusted = adjusted or plain
    named = {
        "query_ms_p50": (1e3 * float(np.percentile(plain, 50)), "ms"),
        "query_ms_p90": (1e3 * float(np.percentile(plain, 90)), "ms"),
        "query_adjusted_ms_p50": (1e3 * float(np.percentile(adjusted, 50)), "ms"),
        "query_adjusted_ms_p90": (1e3 * float(np.percentile(adjusted, 90)), "ms"),
        "queries": (len(plain), "count"),
    }
    if setup_s is not None:
        named["setup_s"] = (setup_s, "s")
        named["setup_wall_s"] = (setup_wall_s, "s")
    pair = None
    if ctx.tracer and latency[True]:
        pair = (statistics.median(latency[True]), statistics.median(plain))
    return WorkloadResult(adjusted, plain, named, pair,
                          {"pool": QUERY_POOL, "queries": len(plain)})


# -- cli-pipeline -------------------------------------------------------------

def _read_lambda_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], [r[0] for r in rows[1:]], np.array([[float(v) for v in r[1:]] for r in rows[1:]])


def cli_pipeline(ctx):
    def setup():
        # A fresh work directory, the CLI's own start-up (logging and
        # argument parser), and the seed's test rows.
        run_dir = ctx.work_dir / "pipeline"
        run_dir.mkdir(parents=True, exist_ok=True)
        with redirect_stdout(io.StringIO()):
            cli.main(["--version"])
        rows = np.random.default_rng([ctx.seed, 13]).choice(CLI_TASKS, CLI_TEST_ROWS, replace=False)
        return run_dir, np.sort(rows)

    if ctx.tracer:
        (w, test_rows), setup_s = setup(), None
    else:
        (w, test_rows), setup_s, setup_wall_s = median_setup(ctx, setup, SETUP_REPEATS)
    manifest = str(w / "data" / "manifest.json")
    command_s, command_adjusted = {}, {}
    state = {"threads": 0}

    def run(argv, traced):
        out = io.StringIO()
        with ctx.scope(f"cli.{argv[0]}", traced), redirect_stdout(out):
            # The commands run thread pools: the speed is sampled between
            # commands only.
            code, timing = ctx.probe.measure(lambda: cli.main(argv))
        check(code == 0, f"exit code {code}")
        echo = json.loads(out.getvalue().strip().splitlines()[-1])
        state["threads"] = echo.get("threads", state["threads"])
        return timing

    def step(name, argv, after=None, traced=True):
        """One CLI command as one operation; False if it did not exit 0.

        after() writes the next command's inputs, then checks this one's
        outputs; a failed check counts against this command only.
        """
        ctx.attempted += 1
        try:
            timing = run(argv, traced and ctx.tracer is not None)
            command_s[name], command_adjusted[name] = timing.wall, timing.adjusted
        except Exception as exc:  # raised or exited non-zero: the pipeline stops
            ctx.fail(name, exc)
            return False
        if after:
            try:
                after()
            except Exception as exc:  # a failed check counts against this command
                ctx.fail(name, exc)
        return True

    def after_infer():
        header, ids, lam = _read_lambda_rows(w / "lambdas.csv")
        with open(w / "test.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            for r in test_rows:
                writer.writerow([ids[r]] + [repr(float(v)) for v in lam[r]])
        state["ids"], state["lam"] = ids, lam
        check(len(ids) == CLI_TASKS and _finite(lam) and (lam > 0).all(),
              "lambdas.csv must hold one positive finite row per task")
        check(ctx.store.agree("cli-pipeline:lambdas", (w / "lambdas.csv").read_bytes()),
              "lambdas.csv differs from an earlier run")

    def after_distance():
        # Accuracies for the diagram: task purity from latents.json less seed noise.
        phi = np.array(json.loads((w / "data" / "latents.json").read_text())["phi"])
        noise = np.random.default_rng([ctx.seed, 17]).uniform(0.0, 0.1, CLI_TEST_ROWS)
        acc = np.clip(phi[test_rows].max(axis=1) - noise, 0.0, 1.0)
        with open(w / "acc.csv", "w", encoding="utf-8") as fh:
            fh.write("task_id,accuracy\n")
            for r, a in zip(test_rows, acc):
                fh.write(f"{state['ids'][r]},{float(a)!r}\n")
        with open(w / "distance.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        lam = state["lam"]
        want = np.maximum(kl_matrix(lam[test_rows], lam), 0.0).mean(axis=1)
        check(len(rows) == CLI_TEST_ROWS, f"distance.csv has {len(rows)} rows")
        got = np.array([float(r[1]) for r in rows])
        check(np.allclose(got, want, rtol=1e-8, atol=1e-10), "mean KL differs from the oracle")

    def after_select():
        ids, lam = state["ids"], state["lam"]
        text = (w / "selected.txt").read_bytes()
        index = {task_id: i for i, task_id in enumerate(ids)}
        chosen = [index[line] for line in text.decode().split()]
        check_selection(chosen, lam, lam[test_rows], SELECT_COUNT)
        check(ctx.store.agree(f"cli-pipeline:selected:{ctx.seed}", text),
              "selected.txt differs from an earlier run with this seed")

    def after_diagram():
        with open(w / "diagram.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        check(sum(int(r[5]) for r in rows) == CLI_TEST_ROWS, "diagram bins do not hold every test task")

    train_argv = ["train", "--data", manifest, "--task-themes", "3", "--image-themes", "4",
                  "--batch", "50", "--max-batches", str(CLI_MAX_BATCHES), *ctx.threads_arg]
    steps = [
        ("gen", ["gen", "--random-model", "3", "4", "4", "--tasks", str(CLI_TASKS), "--classes", "5",
                 "--shots", "16", "--out", str(w / "data")], None),
        ("train", [*train_argv, "--out", str(w / "run")], None),
        ("infer", ["infer", "--model", str(w / "run" / "model.json"), "--data", manifest,
                   *ctx.threads_arg, "--out", str(w / "lambdas.csv")], after_infer),
        ("distance", ["distance", "--test-lambdas", str(w / "test.csv"), "--train-lambdas",
                      str(w / "lambdas.csv"), "--out", str(w / "distance.csv")], after_distance),
        ("select", ["select", "--test-lambdas", str(w / "test.csv"), "--train-lambdas",
                    str(w / "lambdas.csv"), "--count", str(SELECT_COUNT),
                    "--out", str(w / "selected.txt")], after_select),
        ("diagram", ["diagram", "--distances", str(w / "distance.csv"), "--accuracies",
                     str(w / "acc.csv"), "--bins", "5", "--out", str(w / "diagram.csv")], after_diagram),
    ]

    def pipeline():
        for k, (name, argv, after) in enumerate(steps):
            if name == "train" and ctx.tracer:
                # The same command untraced, for the tracing overhead and a
                # byte-identity check against the traced one.
                step("train-untraced", [*train_argv, "--out", str(w / "run_plain")], traced=False)
            if not step(name, argv, after):
                ctx.attempted += len(steps) - k - 1
                ctx.failed += len(steps) - k - 1
                return
        if ctx.tracer:
            for f in ("model.json", "training_log.csv"):
                if (w / "run" / f).read_bytes() != (w / "run_plain" / f).read_bytes():
                    ctx.fail("train", f"traced and untraced runs wrote different {f}")

    pipeline_s, pipeline_adjusted = [], []
    start = time.perf_counter()
    while True:
        command_s.clear()
        command_adjusted.clear()
        pipeline()
        untraced_train = command_s.pop("train-untraced", None)
        command_adjusted.pop("train-untraced", None)
        pipeline_s.append(sum(command_s.values()))
        pipeline_adjusted.append(sum(command_adjusted.values()))
        if ctx.tracer or (len(pipeline_s) >= CLI_MIN_PIPELINES and
                          time.perf_counter() - start + statistics.median(pipeline_s) > ctx.seconds):
            break
    named = {"pipeline_s": (statistics.median(pipeline_s), "s"),
             "pipeline_adjusted_s": (statistics.median(pipeline_adjusted), "s")}
    if setup_s is not None:
        named["setup_s"] = (setup_s, "s")
        named["setup_wall_s"] = (setup_wall_s, "s")
    pair = None
    if untraced_train and "train" in command_s:
        pair = (command_s["train"], untraced_train)
    extra = {"command_s": dict(command_s), "command_adjusted_s": dict(command_adjusted),
             "threads": state["threads"], "threads_arg": ctx.threads_arg}
    return WorkloadResult(pipeline_adjusted, pipeline_s, named, pair, extra)


WORKLOADS = {
    "train-planted": train_planted,
    "query-select": query_select,
    "cli-pipeline": cli_pipeline,
}
