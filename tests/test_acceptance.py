"""End-to-end acceptance checks.

Each test prints one `ACCEPTANCE <name>: PASS|FAIL` line; run with
`pytest tests/test_acceptance.py -v -s` to see them.
"""

import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    VariationalState,
    best_permutation,
    dense_newton_solve,
    fd_alpha_gradient,
    mc_dirichlet_kl,
    random_posterior_instance,
    reference_gmm_em,
    stack_states,
    task_elbo,
    update_eta,
    update_gamma,
    update_lambda,
    update_r,
)
import ldcc.inference as inference
from ldcc.cli import _random_model, main
from ldcc.data import Task, TaskCollection, generate_synthetic, load_tasks, save_tasks
from ldcc.inference import estep_blocks, run_estep
from ldcc.learning import (
    accumulate_stats,
    alpha_newton_direction,
    alpha_newton_work,
    local_mstep,
    online_update,
    train,
)
from ldcc.model import ThemeModel, TrainConfig, init_model, load_model, save_model
from ldcc.similarity import correlation_diagram, dirichlet_kl, select_tasks


def report(name, ok, detail=""):
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"{name} failed: {detail}"


def planted_model():
    return ThemeModel(
        np.array([[0.0, 0.0], [8.0, 0.0], [0.0, 8.0]]),
        np.stack([np.eye(2)] * 3),
        np.array([[6.0, 1.0, 1.0], [1.0, 1.0, 6.0]]),
        np.array([0.01, 0.01]),
    )


@pytest.fixture(scope="module")
def recovery_run():
    """M=200 planted collection trained with defaults; shared by the
    recovery and selection criteria."""
    collection, latents = generate_synthetic(planted_model(), 200, 5, 16, seed=7)
    start = time.monotonic()
    model, _ = train(collection, 2, 3, TrainConfig(seed=0))
    train_seconds = time.monotonic() - start
    config = TrainConfig(seed=0)
    lambdas = np.vstack(
        [run_estep(task, model, config).lam for task in collection]
    )
    return collection, latents, model, lambdas, train_seconds


def train_planted(classes, shots):
    """Default training on 200 planted tasks of classes x shots (data seed 7)."""
    collection, _ = generate_synthetic(planted_model(), 200, classes, shots, seed=7)
    return train(collection, 2, 3, TrainConfig(seed=0))


def mu_error(model):
    """Largest distance from a planted image-theme mean to its matched trained one."""
    planted = planted_model()
    perm = best_permutation(planted.mu, model.mu)
    return max(float(np.linalg.norm(planted.mu[k] - model.mu[perm[k]])) for k in range(planted.K))


@pytest.fixture(scope="module")
def default_runs():
    """The acceptance collection (5x16) and 5x1, each trained with defaults."""
    return {(classes, shots): train_planted(classes, shots) for classes, shots in ((5, 16), (5, 1))}


def test_elbo_monotonic_over_sweeps():
    start = time.monotonic()
    collection, _ = generate_synthetic(planted_model(), 50, 5, 16, seed=13)
    base = init_model(collection, 2, 3, delta_value=0.5, seed=13)
    model = ThemeModel(
        base.mu, base.sigma, np.array([[2.0, 1.0, 0.8], [0.9, 1.5, 2.5]]), base.delta
    )
    worst = 0.0
    for task in collection:
        C = task.num_classes
        r = [np.full((n, model.K), 1.0 / model.K) for n in task.counts]
        eta = np.full((C, model.L), 1.0 / model.L)
        state = VariationalState(
            r, np.empty((C, model.K)), eta, np.empty(model.L)
        )
        for c in range(C):
            state.gamma[c] = update_gamma(state, c, model.alpha)
        state.lam = update_lambda(state, model.delta)
        previous = task_elbo(task, state, model)
        for _ in range(20):
            for c in range(C):
                state.r[c] = update_r(task, c, state, model)
            state.gamma = np.stack(
                [update_gamma(state, c, model.alpha) for c in range(C)]
            )
            state.eta = np.stack([update_eta(state, c, model) for c in range(C)])
            state.lam = update_lambda(state, model.delta)
            current = task_elbo(task, state, model)
            drop = (previous - current) / abs(previous)
            worst = max(worst, drop)
            previous = current
        assert state.gamma_clamps == 0
    seconds = time.monotonic() - start
    ok = worst <= 1e-8 and seconds < 30.0
    report(
        "elbo_monotonic",
        ok,
        f"(worst relative drop {worst:.2e}, {seconds:.1f}s)",
    )


def test_alpha_gradient_matches_finite_differences():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(20):
        L = int(rng.integers(1, 5))
        K = int(rng.integers(1, 5))
        tasks, states = zip(*(
            random_posterior_instance(rng, C=int(rng.integers(1, 4)), N=3, K=K, L=L)
            for _ in range(3)
        ))
        alpha = rng.uniform(0.4, 4.0, size=(L, K))
        grad = alpha_newton_work([stack_states(tasks, states)], alpha).gradient
        ref = fd_alpha_gradient(states, alpha)
        scale = max(np.abs(ref).max(), 1e-12)
        worst = max(worst, np.abs(grad - ref).max() / scale)
    ok = worst < 1e-5
    report("alpha_gradient_fd", ok, f"(worst relative error {worst:.2e})")


def test_newton_direction_matches_dense_solve():
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(20):
        L = int(rng.integers(1, 5))
        K = int(rng.integers(2, 6))
        tasks, states = zip(*(
            random_posterior_instance(rng, C=3, N=4, K=K, L=L) for _ in range(3)
        ))
        alpha = rng.uniform(0.3, 5.0, size=(L, K))
        work = alpha_newton_work([stack_states(tasks, states)], alpha)
        got = alpha_newton_direction(work)
        ref = dense_newton_solve(work)
        worst = max(worst, np.abs(got - ref).max())
    ok = worst < 1e-9
    report("newton_dense", ok, f"(max entrywise error {worst:.2e})")


def test_dirichlet_kl_identity_montecarlo_nonnegative():
    rng = np.random.default_rng(303)
    identity_worst = 0.0
    for _ in range(20):
        a = rng.uniform(0.1, 12.0, size=int(rng.integers(1, 6)))
        identity_worst = max(identity_worst, abs(dirichlet_kl(a, a)))

    mc_ok = True
    mc_detail = 0.0
    for _ in range(20):
        k = int(rng.integers(2, 5))
        a = rng.uniform(0.5, 8.0, size=k)
        b = rng.uniform(0.5, 8.0, size=k)
        estimate, se = mc_dirichlet_kl(a, b, 1_000_000, rng)
        sigmas = abs(dirichlet_kl(a, b) - estimate) / se
        mc_detail = max(mc_detail, sigmas)
        mc_ok = mc_ok and sigmas <= 3.0

    nonneg_worst = 0.0
    for _ in range(100_000):
        k = int(rng.integers(1, 5))
        a = rng.uniform(0.05, 20.0, size=k)
        b = rng.uniform(0.05, 20.0, size=k)
        nonneg_worst = min(nonneg_worst, dirichlet_kl(a, b))

    ok = identity_worst <= 1e-12 and mc_ok and nonneg_worst >= -1e-12
    report(
        "dirichlet_kl",
        ok,
        f"(identity {identity_worst:.1e}, MC worst {mc_detail:.2f} SE, "
        f"min KL {nonneg_worst:.1e})",
    )


def test_gmm_equivalence_single_task_theme():
    rng = np.random.default_rng(1234)
    x = np.concatenate(
        [
            rng.normal(size=(50, 2)) + np.array([-5.0, 0.0]),
            rng.normal(size=(50, 2)) + np.array([5.0, 0.0]),
        ]
    ).astype(np.float32)
    task = Task("gmm", [x])
    collection = TaskCollection([task])
    config = TrainConfig(seed=0)

    model = init_model(collection, 1, 2, delta_value=1.0, seed=0, jitter=config.jitter)
    init_mu = model.mu.copy()
    previous = None
    for _ in range(500):
        (part,) = estep_blocks([task], model, config)
        stats = accumulate_stats(part)
        means, covs, active = local_mstep(stats, config.jitter)
        model = online_update(
            model, means, covs, np.zeros((1, 2)), rho=1.0, active=active
        )
        if previous is not None and np.abs(model.mu - previous).max() < 1e-13:
            break
        previous = model.mu.copy()

    _, mu_ref, cov_ref, _ = reference_gmm_em(
        x.astype(np.float64), 2, means_init=init_mu, iters=500, jitter=config.jitter,
        tol=1e-13,
    )
    perm = best_permutation(mu_ref, model.mu)
    mu_err = np.abs(mu_ref - model.mu[perm]).max()
    cov_err = np.abs(cov_ref - model.sigma[perm]).max()
    ok = mu_err < 1e-6 and cov_err < 1e-6
    report(
        "gmm_equivalence", ok, f"(mu err {mu_err:.2e}, cov err {cov_err:.2e})"
    )


def test_synthetic_recovery(recovery_run):
    collection, latents, model, lambdas, train_seconds = recovery_run
    planted = planted_model()
    perm = best_permutation(planted.mu, model.mu)
    mu_err = max(
        float(np.linalg.norm(planted.mu[k] - model.mu[perm[k]]))
        for k in range(planted.K)
    )

    themes = latents.task_themes
    M = len(collection)
    kl = np.empty((M, M))
    for i in range(M):
        for j in range(M):
            kl[i, j] = dirichlet_kl(lambdas[i], lambdas[j])
    off_diagonal = ~np.eye(M, dtype=bool)
    same = themes[:, None] == themes[None, :]
    within = kl[same & off_diagonal]
    cross = kl[~same]
    # fraction of (within, cross) pair comparisons with within < cross,
    # computed by ranking
    values = np.concatenate([within, cross])
    order = np.argsort(np.argsort(values, kind="stable"))
    within_ranks = order[: within.size]
    auc = 1.0 - (
        within_ranks.sum() - within.size * (within.size - 1) / 2
    ) / (within.size * cross.size)

    ok = mu_err < 0.1 and auc >= 0.95 and train_seconds < 120.0
    report(
        "synthetic_recovery",
        ok,
        f"(mu err {mu_err:.3f}, within<cross {auc:.4f}, train {train_seconds:.0f}s)",
    )


def test_training_bound_never_falls_across_batches(default_runs):
    # Whole-collection batches are batch variational EM: each E-step
    # continues from the last posterior and rho = 1, so the bound cannot fall.
    falls = {}
    for (classes, shots), (_, rows) in default_runs.items():
        elbos = np.array([row.mean_elbo for row in rows])
        falls[f"{classes}x{shots}"] = float(np.max((elbos[:-1] - elbos[1:]) / np.abs(elbos[:-1])))
    ok = max(falls.values()) <= 1e-9
    detail = ", ".join(f"{case} {fall:.1e}" for case, fall in falls.items())
    report("training_bound_monotonic", ok, f"(worst relative fall per batch: {detail})")


@pytest.mark.parametrize("classes", [16, 20])
def test_recovery_at_more_ways(classes):
    start = time.monotonic()
    model, _ = train_planted(classes, 5)
    seconds = time.monotonic() - start
    mu_err = mu_error(model)
    report(f"recovery_{classes}x5", mu_err < 0.1, f"(mu err {mu_err:.3f}, train {seconds:.1f}s)")


def test_alpha_recovery(default_runs):
    model, _ = default_runs[5, 16]
    planted = planted_model()
    alpha = model.alpha[:, best_permutation(planted.mu, model.mu)]
    alpha = alpha[best_permutation(planted.alpha, alpha)]
    large = planted.alpha == planted.alpha.max()
    got = alpha[large]
    ok = bool(np.all(np.abs(got - planted.alpha[large]) <= 0.1 * planted.alpha[large]))
    report("alpha_recovery", ok, f"(planted large entries {planted.alpha[large]}, trained {got.round(3)})")


def test_train_reduces_to_gmm_em():
    # test_gmm_equivalence_single_task_theme's data, through train itself.
    rng = np.random.default_rng(1234)
    x = np.concatenate(
        [
            rng.normal(size=(50, 2)) + np.array([-5.0, 0.0]),
            rng.normal(size=(50, 2)) + np.array([5.0, 0.0]),
        ]
    ).astype(np.float32)
    collection = TaskCollection([Task("gmm", [x])])
    config = TrainConfig(seed=0)
    init_mu = init_model(collection, 1, 2, delta_value=1.0, seed=0, jitter=config.jitter).mu
    model, _ = train(collection, 1, 2, config, delta=1.0)
    _, mu_ref, cov_ref, _ = reference_gmm_em(
        x.astype(np.float64), 2, means_init=init_mu, iters=500, jitter=config.jitter, tol=1e-13,
    )
    perm = best_permutation(mu_ref, model.mu)
    mu_err = np.abs(mu_ref - model.mu[perm]).max()
    cov_err = np.abs(cov_ref - model.sigma[perm]).max()
    ok = mu_err < 1e-6 and cov_err < 1e-6
    report("train_gmm_equivalence", ok, f"(mu err {mu_err:.2e}, cov err {cov_err:.2e})")


@settings(max_examples=40, deadline=None)
@given(
    K=st.integers(1, 9), L=st.integers(1, 9),
    splits=st.lists(st.lists(st.integers(1, 6), min_size=1, max_size=3), min_size=2, max_size=6),
    data=st.data(),
)
def test_embedding_depends_only_on_samples_and_model(K, L, splits, data):
    # Each task's lambda alone, under the default config, against the same
    # tasks renamed, reordered and subset, under any seed and block size.
    # K and L of 8 and more are drawn too, where numpy sums a lone column
    # pairwise, and so are one-sample tasks.
    rng = np.random.default_rng([K, L, len(splits)])
    model = ThemeModel(4.0 * rng.standard_normal((K, 2)), np.stack([np.eye(2)] * K),
                       rng.uniform(0.5, 2.0, (L, K)), np.full(L, 0.5))
    tasks = [Task(f"t{d}", [(model.mu[rng.integers(K)] + rng.normal(size=(n, 2))).astype(np.float32)
                            for n in counts])
             for d, counts in enumerate(splits)]
    alone = [run_estep(task, model, TrainConfig()).lam.tobytes() for task in tasks]
    order = data.draw(st.permutations(range(len(tasks))))
    picked = order[:data.draw(st.integers(1, len(tasks)))]
    names = data.draw(st.lists(st.text("abcxyz-_0123", min_size=1, max_size=6),
                               min_size=len(picked), max_size=len(picked), unique=True))
    seed, block_rows = data.draw(st.integers(0, 2**64 - 1)), data.draw(st.integers(1, 40))
    renamed = [Task(name, tasks[i].classes) for name, i in zip(names, picked)]
    with mock.patch.object(inference, "_BLOCK_ROWS", block_rows):
        parts = list(estep_blocks(renamed, model, TrainConfig(seed=seed)))
    got = [row.tobytes() for part in parts for row in part.lam]
    ok = got == [alone[i] for i in picked]
    report("embedding_invariance", ok, f"(K={K}, L={L}, {len(picked)} tasks, seed {seed}, "
           f"blocks of {block_rows} rows)")


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_task_themes_separate_on_cli_pipeline_recipe(seed):
    # The benchmark's cli-pipeline data (gen --random-model 3 4 4, 400 tasks
    # of 5 x 16) trained as it trains it (--batch 50 --max-batches 8): the
    # alpha rows must move apart, or the model has no task themes to embed.
    tasks, _ = generate_synthetic(_random_model((3, 4, 4), 0.5, 0), 400, 5, 16, seed=seed)
    model, _ = train(tasks, 3, 4, TrainConfig(seed=seed, batch_size=50, max_batches=8))
    spread = float(np.max(np.ptp(model.alpha, axis=0)))
    report(f"task_themes_separate_seed{seed}", spread > 0.1, f"(max alpha column spread {spread:.3f})")


def test_correlation_diagram_hand_instance():
    bins = correlation_diagram([1.0, 3.0], [0.9, 0.8], num_bins=2)
    ok = (
        len(bins) == 2
        and (bins[0].low, bins[0].high) == (0.0, 1.5)
        and bins[0].mean_distance == 1.0
        and bins[0].mean_accuracy == 0.9
        and bins[0].count == 1
        and (bins[1].low, bins[1].high) == (1.5, 3.0)
        and bins[1].mean_distance == 3.0
        and bins[1].mean_accuracy == 0.8
        and bins[1].count == 1
    )
    report("correlation_diagram", ok, f"(bins {bins})")


def test_selection_prefers_matching_theme(recovery_run):
    collection, latents, model, train_lambdas, _ = recovery_run
    planted = planted_model()
    theme_a = ThemeModel(
        planted.mu, planted.sigma, planted.alpha[:1], np.array([1.0])
    )
    config = TrainConfig(seed=0)
    themes = latents.task_themes
    fractions = []
    for seed in range(10):
        test_collection, _ = generate_synthetic(theme_a, 20, 5, 16, seed=1000 + seed)
        test_lambdas = np.vstack(
            [run_estep(task, model, config).lam for task in test_collection]
        )
        chosen = select_tasks(train_lambdas, test_lambdas, 50)
        fractions.append(float(np.mean(themes[chosen] == 0)))
    ok = min(fractions) >= 0.90
    report(
        "selection_sanity",
        ok,
        f"(theme-A fraction per seed min {min(fractions):.2f})",
    )


def test_determinism_end_to_end(tmp_path):
    def pipeline(root):
        data = root / "data"
        run_dir = root / "run"
        lam = root / "lambdas.csv"
        dist = root / "dist.csv"
        selected = root / "selected.txt"
        diagram = root / "diagram.csv"
        assert main([
            "gen", "--random-model", "2", "2", "2",
            "--tasks", "8", "--classes", "3", "--shots", "4",
            "--seed", "3", "--out", str(data),
        ]) == 0
        assert main([
            "train", "--data", str(data / "manifest.json"),
            "--task-themes", "2", "--image-themes", "2",
            "--batch", "4", "--max-batches", "4", "--threads", "2",
            "--out", str(run_dir),
        ]) == 0
        assert main([
            "infer", "--model", str(run_dir / "model.json"),
            "--data", str(data / "manifest.json"),
            "--threads", "2", "--out", str(lam),
        ]) == 0
        assert main([
            "distance", "--test-lambdas", str(lam),
            "--train-lambdas", str(lam), "--out", str(dist),
        ]) == 0
        assert main([
            "select", "--test-lambdas", str(lam),
            "--train-lambdas", str(lam), "--count", "4",
            "--out", str(selected),
        ]) == 0
        acc = root / "acc.csv"
        ids = [line.split(",")[0] for line in lam.read_text().splitlines()[1:]]
        acc.write_text(
            "task_id,accuracy\n" + "".join(f"{i},0.75\n" for i in ids)
        )
        assert main([
            "diagram", "--distances", str(dist), "--accuracies", str(acc),
            "--bins", "2", "--out", str(diagram),
        ]) == 0
        return [
            data / "manifest.json",
            data / "latents.json",
            *[data / f"task_{d:05d}.task" for d in range(8)],
            run_dir / "model.json",
            run_dir / "training_log.csv",
            lam,
            dist,
            selected,
            diagram,
        ]

    files_a = pipeline(tmp_path / "a")
    files_b = pipeline(tmp_path / "b")
    bit_identical = all(
        a.read_bytes() == b.read_bytes() for a, b in zip(files_a, files_b)
    )

    # round trips: checkpoint and task files reload to identical values
    model = load_model(tmp_path / "a" / "run" / "model.json")
    save_model(model, tmp_path / "resaved.json")
    checkpoint_ok = (
        tmp_path / "resaved.json"
    ).read_bytes() == (tmp_path / "a" / "run" / "model.json").read_bytes()

    original = load_tasks(tmp_path / "a" / "data" / "manifest.json")
    save_tasks(original, tmp_path / "resaved_tasks")
    reloaded = load_tasks(tmp_path / "resaved_tasks" / "manifest.json")
    tasks_ok = reloaded == original

    ok = bit_identical and checkpoint_ok and tasks_ok
    report(
        "determinism",
        ok,
        f"(pipelines identical: {bit_identical}, checkpoint round-trip: "
        f"{checkpoint_ok}, task round-trip: {tasks_ok})",
    )
