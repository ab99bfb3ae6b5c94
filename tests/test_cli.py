import argparse
import json
import logging
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ldcc
from ldcc.cli import build_parser, main
from ldcc.data import load_latents, load_tasks
from ldcc.inference import read_lambda_csv, write_lambda_csv
from ldcc.model import ThemeModel, load_model, save_model
from ldcc.similarity import dirichlet_kl


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def gen_args(out, tasks=8, dim=2, seed=1):
    return [
        "gen",
        "--random-model", "2", "2", str(dim),
        "--tasks", str(tasks),
        "--classes", "3",
        "--shots", "4",
        "--seed", str(seed),
        "--out", str(out),
    ]


def config_to_argv(config):
    """Rebuild an argv from an echoed config line."""
    argv = [config["command"]]
    for key, value in config.items():
        if key == "command" or value is None:
            continue
        flag = "--" + key.replace("_", "-")
        if isinstance(value, list):
            argv.append(flag)
            argv.extend(str(v) for v in value)
        else:
            argv.extend([flag, str(value)])
    return argv


class TestGen:
    def test_writes_collection(self, tmp_path, capsys):
        out = tmp_path / "data"
        code, stdout, _ = run(capsys, *gen_args(out))
        assert code == 0
        coll = load_tasks(out / "manifest.json")
        assert len(coll) == 8
        assert all(t.num_classes == 3 and t.counts == (4, 4, 4) for t in coll)
        latents = load_latents(out / "latents.json")
        assert latents.phi.shape == (8, 2)
        config = json.loads(stdout)
        assert config["command"] == "gen"
        assert config["tasks"] == 8
        sidecar = (out / "config.json").read_text()
        assert sidecar == stdout

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(capsys, *gen_args(a))[0] == 0
        assert run(capsys, *gen_args(b))[0] == 0
        for name in ["manifest.json", "latents.json"] + [
            f"task_{d:05d}.task" for d in range(8)
        ]:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_from_checkpoint(self, tmp_path, capsys):
        model = ThemeModel(
            np.array([[0.0, 0.0], [6.0, 6.0]]),
            np.stack([np.eye(2)] * 2),
            np.array([[3.0, 0.5]]),
            np.array([1.0]),
        )
        path = tmp_path / "model.json"
        save_model(model, path)
        out = tmp_path / "data"
        code, stdout, _ = run(
            capsys,
            "gen", "--model", str(path),
            "--tasks", "3", "--classes", "2", "--shots", "5",
            "--seed", "0", "--out", str(out),
        )
        assert code == 0
        coll = load_tasks(out / "manifest.json")
        assert coll.dimension == 2

    def test_zero_tasks_is_usage_error(self, tmp_path, capsys):
        code, _, err = run(capsys, *gen_args(tmp_path / "x", tasks=0))
        assert code == 2
        assert "--tasks" in err

    def test_missing_model_file(self, tmp_path, capsys):
        code, _, _ = run(
            capsys,
            "gen", "--model", str(tmp_path / "missing.json"),
            "--tasks", "1", "--classes", "1", "--shots", "1",
            "--out", str(tmp_path / "out"),
        )
        assert code == 3

    def test_model_sources_are_exclusive(self, tmp_path, capsys):
        code, _, _ = run(
            capsys,
            "gen", "--model", "x.json", "--random-model", "2", "2", "2",
            "--tasks", "1", "--classes", "1", "--shots", "1",
            "--out", str(tmp_path / "out"),
        )
        assert code == 2

    def test_unknown_flag(self, tmp_path, capsys):
        code, _, _ = run(capsys, "gen", "--nope", "1")
        assert code == 2


@pytest.fixture()
def small_collection(tmp_path_factory):
    out = tmp_path_factory.mktemp("gen") / "data"
    code = main(gen_args(out, tasks=10))
    assert code == 0
    return out


class TestTrain:
    def train_args(self, data, out, extra=()):
        return [
            "train",
            "--data", str(data / "manifest.json"),
            "--task-themes", "2",
            "--image-themes", "2",
            "--batch", "5",
            "--max-batches", "3",
            "--seed", "0",
            "--threads", "1",
            "--out", str(out),
            *extra,
        ]

    def test_smoke(self, small_collection, tmp_path, capsys):
        out = tmp_path / "run"
        code, stdout, _ = run(capsys, *self.train_args(small_collection, out))
        assert code == 0
        model = load_model(out / "model.json")
        assert model.L == 2 and model.K == 2 and model.D == 2
        lines = (out / "training_log.csv").read_text().splitlines()
        assert lines[0] == "batch,rho,mean_elbo,alpha_min,alpha_max,estep_iters_mean"
        assert len(lines) == 4
        config = json.loads(stdout)
        assert config["command"] == "train"
        assert config["max_batches"] == 3

    def test_deterministic_across_runs_and_threads(self, small_collection, tmp_path, capsys):
        a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        assert run(capsys, *self.train_args(small_collection, a))[0] == 0
        assert run(capsys, *self.train_args(small_collection, b))[0] == 0
        args_c = self.train_args(small_collection, c)
        args_c[args_c.index("--threads") + 1] = "4"
        assert run(capsys, *args_c)[0] == 0
        assert (a / "model.json").read_bytes() == (b / "model.json").read_bytes()
        assert (a / "model.json").read_bytes() == (c / "model.json").read_bytes()
        assert (a / "training_log.csv").read_bytes() == (b / "training_log.csv").read_bytes()
        assert (a / "training_log.csv").read_bytes() == (c / "training_log.csv").read_bytes()

    def test_identical_across_blas_thread_counts(self, small_collection, tmp_path):
        # BLAS reads its thread count at start-up, so each count needs its
        # own process.
        source = str(Path(ldcc.__file__).resolve().parents[1])
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"blas{threads}"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [source, env.get("PYTHONPATH")]))
            argv = self.train_args(small_collection, out)
            result = subprocess.run(
                [sys.executable, "-c",
                 "import sys; from ldcc.cli import main; sys.exit(main(sys.argv[1:]))",
                 *argv],
                env=env, capture_output=True, text=True, timeout=300,
            )
            assert result.returncode == 0, result.stderr
            outputs.append(out)
        a, b = outputs
        assert (a / "model.json").read_bytes() == (b / "model.json").read_bytes()
        assert (a / "training_log.csv").read_bytes() == (b / "training_log.csv").read_bytes()

    def test_rerun_from_echoed_config(self, small_collection, tmp_path, capsys):
        first = tmp_path / "first"
        code, stdout, _ = run(capsys, *self.train_args(small_collection, first))
        assert code == 0
        config = json.loads(stdout)
        config["out"] = str(tmp_path / "second")
        code2, stdout2, _ = run(capsys, *config_to_argv(config))
        assert code2 == 0
        second = tmp_path / "second"
        assert (first / "model.json").read_bytes() == (second / "model.json").read_bytes()
        assert (
            first / "training_log.csv"
        ).read_bytes() == (second / "training_log.csv").read_bytes()

    def test_bad_decay_exponent(self, small_collection, tmp_path, capsys):
        code, _, err = run(
            capsys,
            *self.train_args(small_collection, tmp_path / "x", extra=["--tau1", "0.4"]),
        )
        assert code == 2
        assert "tau1" in err

    def test_missing_data(self, tmp_path, capsys):
        code, _, _ = run(
            capsys,
            "train", "--data", str(tmp_path / "none.json"),
            "--task-themes", "2", "--image-themes", "2",
            "--out", str(tmp_path / "out"),
        )
        assert code == 3

    def test_more_image_themes_than_samples(self, small_collection, tmp_path, capsys):
        args = self.train_args(small_collection, tmp_path / "x")
        args[args.index("--image-themes") + 1] = "500"
        code, _, err = run(capsys, *args)
        assert code == 3
        assert "cannot seed 500 image themes from 120 samples" in err


class TestInfer:
    def test_lambda_output(self, small_collection, tmp_path, capsys):
        run_dir = tmp_path / "run"
        code, _, _ = run(
            capsys,
            "train", "--data", str(small_collection / "manifest.json"),
            "--task-themes", "2", "--image-themes", "2",
            "--batch", "5", "--max-batches", "2", "--threads", "1",
            "--out", str(run_dir),
        )
        assert code == 0
        out = tmp_path / "lambdas.csv"
        code, stdout, _ = run(
            capsys,
            "infer", "--model", str(run_dir / "model.json"),
            "--data", str(small_collection / "manifest.json"),
            "--threads", "1",
            "--out", str(out),
        )
        assert code == 0
        ids, lam = read_lambda_csv(out)
        coll = load_tasks(small_collection / "manifest.json")
        assert ids == coll.ids
        assert lam.shape == (10, 2)
        assert np.all(lam > 0) and np.isfinite(lam).all()
        assert (tmp_path / "lambdas.csv.config.json").exists()

    def test_capped_esteps_warn_once(self, small_collection, tmp_path, capsys, caplog):
        model = ThemeModel(
            np.array([[0.0, 0.0], [3.0, 0.0]]), np.stack([np.eye(2)] * 2),
            np.array([[2.0, 0.5], [0.5, 2.0]]), np.array([0.5, 0.5]),
        )
        path = tmp_path / "model.json"
        save_model(model, path)
        with caplog.at_level(logging.WARNING, logger="ldcc"):
            code, _, _ = run(
                capsys,
                "infer", "--model", str(path),
                "--data", str(small_collection / "manifest.json"),
                "--max-e-iters", "1", "--e-tol", "1e-12",
                "--out", str(tmp_path / "lambdas.csv"),
            )
        assert code == 0
        messages = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        assert len(messages) == 1
        assert messages[0].startswith("infer: 10 of 10 E-steps stopped at max_e_iters=1;")

    def test_degenerate_model_closed_form(self, small_collection, tmp_path, capsys):
        # L = K = 1: lambda is exactly delta + C for every task
        model = ThemeModel(
            np.zeros((1, 2)), np.stack([np.eye(2)]), np.ones((1, 1)), np.array([0.5])
        )
        path = tmp_path / "model.json"
        save_model(model, path)
        out = tmp_path / "lambdas.csv"
        code, _, _ = run(
            capsys,
            "infer", "--model", str(path),
            "--data", str(small_collection / "manifest.json"),
            "--threads", "2",
            "--out", str(out),
        )
        assert code == 0
        _, lam = read_lambda_csv(out)
        assert np.allclose(lam, 0.5 + 3.0, atol=1e-12)

    def test_dimension_mismatch(self, small_collection, tmp_path, capsys):
        model = ThemeModel(
            np.zeros((1, 5)), np.stack([np.eye(5)]), np.ones((1, 1)), np.ones(1)
        )
        path = tmp_path / "model.json"
        save_model(model, path)
        code, _, err = run(
            capsys,
            "infer", "--model", str(path),
            "--data", str(small_collection / "manifest.json"),
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == 3
        assert "dimension" in err


class TestDistance:
    def write_lambdas(self, path, ids, rows):
        write_lambda_csv(path, ids, np.asarray(rows, dtype=np.float64))

    def test_hand_checked_values(self, tmp_path, capsys):
        test_csv = tmp_path / "test.csv"
        train_csv = tmp_path / "train.csv"
        self.write_lambdas(test_csv, ["q"], [[2.0, 1.0]])
        self.write_lambdas(train_csv, ["a", "b"], [[1.0, 1.0], [2.0, 1.0]])
        out = tmp_path / "dist.csv"
        code, _, _ = run(
            capsys,
            "distance", "--test-lambdas", str(test_csv),
            "--train-lambdas", str(train_csv),
            "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "test_id,mean_kl"
        task_id, value = lines[1].split(",")
        assert task_id == "q"
        expected = (math.log(2.0) - 0.5) / 2.0
        assert float(value) == pytest.approx(expected, rel=1e-12)

    def test_malformed_input(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("task_id,lambda_1\nx,-3.0\n")
        code, _, _ = run(
            capsys,
            "distance", "--test-lambdas", str(bad),
            "--train-lambdas", str(bad),
            "--out", str(tmp_path / "out.csv"),
        )
        assert code == 3

    def test_numeric_overflow_is_exit_4(self, tmp_path, capsys):
        huge = tmp_path / "huge.csv"
        huge.write_text("task_id,lambda_1,lambda_2\nx,1e308,1e308\n")
        ok = tmp_path / "ok.csv"
        self.write_lambdas(ok, ["a"], [[1.0, 1.0]])
        code, _, _ = run(
            capsys,
            "distance", "--test-lambdas", str(huge),
            "--train-lambdas", str(ok),
            "--out", str(tmp_path / "out.csv"),
        )
        assert code == 4


class TestSelect:
    def test_selection_with_ties(self, tmp_path, capsys):
        train_csv = tmp_path / "train.csv"
        test_csv = tmp_path / "test.csv"
        write_lambda_csv(
            train_csv,
            ["t0", "t1", "t2", "t3"],
            np.array([[2.0, 2.0], [9.0, 1.0], [2.0, 2.0], [2.0, 2.0]]),
        )
        write_lambda_csv(test_csv, ["q"], np.array([[2.0, 2.0]]))
        out = tmp_path / "selected.txt"
        code, _, _ = run(
            capsys,
            "select", "--test-lambdas", str(test_csv),
            "--train-lambdas", str(train_csv),
            "--count", "3",
            "--out", str(out),
        )
        assert code == 0
        assert out.read_text().splitlines() == ["t0", "t2", "t3"]

    def test_count_out_of_range(self, tmp_path, capsys):
        csv_path = tmp_path / "lam.csv"
        write_lambda_csv(csv_path, ["a"], np.array([[1.0, 1.0]]))
        code, _, _ = run(
            capsys,
            "select", "--test-lambdas", str(csv_path),
            "--train-lambdas", str(csv_path),
            "--count", "5",
            "--out", str(tmp_path / "out.txt"),
        )
        assert code == 2


class TestDiagram:
    def write_inputs(self, tmp_path, ids_accuracy=None):
        dist = tmp_path / "dist.csv"
        dist.write_text("test_id,mean_kl\nt1,1.0\nt2,3.0\n")
        acc = tmp_path / "acc.csv"
        rows = ids_accuracy or [("t1", 0.9), ("t2", 0.8)]
        acc.write_text(
            "task_id,accuracy\n" + "".join(f"{i},{v}\n" for i, v in rows)
        )
        return dist, acc

    def test_two_bin_instance(self, tmp_path, capsys):
        dist, acc = self.write_inputs(tmp_path)
        out = tmp_path / "diagram.csv"
        code, _, _ = run(
            capsys,
            "diagram", "--distances", str(dist), "--accuracies", str(acc),
            "--bins", "2", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "bin,low,high,mean_distance,mean_accuracy,count"
        assert lines[1] == "1,0.0,1.5,1.0,0.9,1"
        assert lines[2] == "2,1.5,3.0,3.0,0.8,1"

    def test_unknown_accuracy_ids(self, tmp_path, capsys):
        dist, acc = self.write_inputs(
            tmp_path, [("t1", 0.9), ("t2", 0.8), ("ghost", 0.5)]
        )
        code, _, err = run(
            capsys,
            "diagram", "--distances", str(dist), "--accuracies", str(acc),
            "--bins", "2", "--out", str(tmp_path / "out.csv"),
        )
        assert code == 3
        assert "ghost" in err

    def test_missing_accuracy_ids(self, tmp_path, capsys):
        dist, acc = self.write_inputs(tmp_path, [("t1", 0.9)])
        code, _, err = run(
            capsys,
            "diagram", "--distances", str(dist), "--accuracies", str(acc),
            "--bins", "2", "--out", str(tmp_path / "out.csv"),
        )
        assert code == 3
        assert "t2" in err

    def test_duplicate_distance_ids_is_exit_3(self, tmp_path, capsys):
        dist, acc = self.write_inputs(tmp_path, [("t1", 0.9)])
        dist.write_text("test_id,mean_kl\nt1,1.0\nt1,3.0\n")
        out = tmp_path / "out.csv"
        code, _, err = run(
            capsys,
            "diagram", "--distances", str(dist), "--accuracies", str(acc),
            "--bins", "2", "--out", str(out),
        )
        assert code == 3
        assert "dist.csv:3: duplicate task id 't1'" in err
        assert not out.exists()

    def test_zero_bins(self, tmp_path, capsys):
        dist, acc = self.write_inputs(tmp_path)
        code, _, _ = run(
            capsys,
            "diagram", "--distances", str(dist), "--accuracies", str(acc),
            "--bins", "0", "--out", str(tmp_path / "out.csv"),
        )
        assert code == 2

    @pytest.mark.parametrize("value", ["nan", "inf", "-0.5"])
    def test_bad_distance_is_exit_3(self, tmp_path, capsys, value):
        dist, acc = self.write_inputs(tmp_path)
        dist.write_text(f"test_id,mean_kl\nt1,1.0\nt2,{value}\n")
        code, _, err = run(
            capsys,
            "diagram", "--distances", str(dist), "--accuracies", str(acc),
            "--bins", "2", "--out", str(tmp_path / "out.csv"),
        )
        assert code == 3
        assert "mean_kl must be finite and >= 0" in err


def echo_argv(command, data, tmp_path):
    """A valid argv for one subcommand, with its inputs written under tmp_path."""
    manifest = str(data / "manifest.json")
    model = tmp_path / "model.json"
    save_model(
        ThemeModel(np.zeros((2, 2)), np.stack([np.eye(2)] * 2), np.ones((2, 2)), np.ones(2)),
        model,
    )
    lam = str(tmp_path / "lam.csv")
    write_lambda_csv(lam, ["a", "b"], np.array([[1.0, 2.0], [2.0, 1.0]]))
    dist, acc = tmp_path / "dist.csv", tmp_path / "acc.csv"
    dist.write_text("test_id,mean_kl\na,1.0\nb,3.0\n")
    acc.write_text("task_id,accuracy\na,0.9\nb,0.8\n")
    out = str(tmp_path / "out")
    return {
        "gen": gen_args(out),
        "train": ["train", "--data", manifest, "--task-themes", "2", "--image-themes", "2",
                  "--batch", "5", "--max-batches", "1", "--out", out],
        "infer": ["infer", "--model", str(model), "--data", manifest, "--out", out],
        "distance": ["distance", "--test-lambdas", lam, "--train-lambdas", lam, "--out", out],
        "select": ["select", "--test-lambdas", lam, "--train-lambdas", lam,
                   "--count", "1", "--out", out],
        "diagram": ["diagram", "--distances", str(dist), "--accuracies", str(acc),
                    "--bins", "2", "--out", out],
    }[command]


@pytest.mark.parametrize(
    "command, out_is_dir",
    [("gen", True), ("train", True), ("infer", False), ("distance", False),
     ("select", False), ("diagram", False)],
)
def test_echo_is_every_option(command, out_is_dir, small_collection, tmp_path, capsys):
    argv = echo_argv(command, small_collection, tmp_path)
    code, stdout, _ = run(capsys, *argv)
    assert code == 0
    out = tmp_path / "out"
    sidecar = out / "config.json" if out_is_dir else tmp_path / "out.config.json"
    assert sidecar.read_text(encoding="utf-8") == stdout
    echo = json.loads(stdout)
    parser = build_parser()
    subparsers = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    dests = {a.dest for a in subparsers.choices[command]._actions if a.dest != "help"}
    assert set(echo) == dests | {"command"}
    expected = vars(parser.parse_args(argv))
    reparsed = vars(parser.parse_args(config_to_argv(echo)))
    del expected["func"], reparsed["func"]
    assert reparsed == expected


class TestTopLevel:
    def test_no_command(self, capsys):
        assert main([]) == 2

    def test_version(self, capsys):
        assert main(["--version"]) == 0
        assert "ldcc" in capsys.readouterr().out

    def test_pipeline_end_to_end(self, tmp_path, capsys):
        # gen -> train -> infer (train + test) -> distance -> select -> diagram
        data = tmp_path / "data"
        assert run(capsys, *gen_args(data, tasks=6))[0] == 0
        run_dir = tmp_path / "run"
        assert (
            run(
                capsys,
                "train", "--data", str(data / "manifest.json"),
                "--task-themes", "2", "--image-themes", "2",
                "--batch", "6", "--max-batches", "2", "--threads", "1",
                "--out", str(run_dir),
            )[0]
            == 0
        )
        lam = tmp_path / "lambdas.csv"
        assert (
            run(
                capsys,
                "infer", "--model", str(run_dir / "model.json"),
                "--data", str(data / "manifest.json"),
                "--threads", "1", "--out", str(lam),
            )[0]
            == 0
        )
        dist = tmp_path / "dist.csv"
        assert (
            run(
                capsys,
                "distance", "--test-lambdas", str(lam),
                "--train-lambdas", str(lam), "--out", str(dist),
            )[0]
            == 0
        )
        selected = tmp_path / "selected.txt"
        assert (
            run(
                capsys,
                "select", "--test-lambdas", str(lam),
                "--train-lambdas", str(lam), "--count", "3",
                "--out", str(selected),
            )[0]
            == 0
        )
        acc = tmp_path / "acc.csv"
        ids, _ = read_lambda_csv(lam)
        acc.write_text(
            "task_id,accuracy\n" + "".join(f"{i},0.5\n" for i in ids)
        )
        diagram = tmp_path / "diagram.csv"
        assert (
            run(
                capsys,
                "diagram", "--distances", str(dist), "--accuracies", str(acc),
                "--bins", "3", "--out", str(diagram),
            )[0]
            == 0
        )
        assert len(selected.read_text().splitlines()) == 3
        assert diagram.read_text().startswith("bin,low,high")
