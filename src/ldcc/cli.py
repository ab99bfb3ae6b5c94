"""Command-line interface.

Subcommands cover the full pipeline: ``gen`` (synthetic task collections),
``train`` (online variational training), ``infer`` (per-task posterior
embeddings), ``distance``, ``select``, and ``diagram`` (similarity
consumers).  Every command prints its parsed options as a JSON line and
writes the same JSON next to its outputs, so any run can be reproduced
bit-for-bit from the echo.

Exit codes: 0 success, 2 usage problems, 3 malformed or mismatched inputs,
4 numeric failures.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .data import generate_synthetic, load_tasks, save_latents, save_tasks
from .errors import (
    CheckpointError,
    DataError,
    DomainError,
    FormatError,
    ModelError,
    NumericError,
)
from .inference import Posterior, estep_blocks, read_lambda_csv, warn_estep_waste, write_lambda_csv
from .learning import train, write_training_log
from .model import ThemeModel, TrainConfig, load_model, save_model
from .similarity import (
    correlation_diagram,
    distance_matrix,
    read_accuracy_csv,
    read_distance_csv,
    select_tasks,
    write_diagram_csv,
    write_distance_csv,
    write_selection,
)
from .streams import check_seed, random_model_stream


class UsageError(Exception):
    """Flag values that argparse cannot reject on its own."""


def _positive(kind):
    """An argparse type: a `kind` value above 0 and finite."""
    def parse(text):
        value = kind(text)
        if not 0 < value < math.inf:
            raise argparse.ArgumentTypeError(f"must be finite and above 0, got {text}")
        return value

    parse.__name__ = kind.__name__  # argparse names it in "invalid int value"
    return parse


def _seed(text):
    """An argparse type: a seed, an integer in [0, 2^64)."""
    try:
        return check_seed(int(text))
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer in [0, 2^64), got {text}") from None


def _echo_config(args, out_is_dir: bool) -> None:
    """Print every parsed option as one JSON line and write it beside the output."""
    out_path = Path(args.out)
    config = {key: value for key, value in vars(args).items() if key != "func"}
    config["out"] = str(out_path)
    text = json.dumps(config, sort_keys=True)
    print(text)
    if out_is_dir:
        sidecar = out_path / "config.json"
    else:
        sidecar = out_path.with_name(out_path.name + ".config.json")
    sidecar.write_text(text + "\n", encoding="utf-8")


def _random_model(dims, delta_value: float, seed: int) -> ThemeModel:
    """A demo model: means 4x standard normal, identity covariances, alpha
    rows uniform in [0.5, 2]."""
    num_task_themes, num_image_themes, dim = dims
    rng = random_model_stream(seed)
    mu = 4.0 * rng.standard_normal((num_image_themes, dim))
    sigma = np.broadcast_to(np.eye(dim), (num_image_themes, dim, dim)).copy()
    alpha = rng.uniform(0.5, 2.0, (num_task_themes, num_image_themes))
    delta = np.full(num_task_themes, delta_value)
    return ThemeModel(mu, sigma, alpha, delta)


def cmd_gen(args) -> None:
    if args.model is not None:
        model = load_model(args.model)
    else:
        model = _random_model(args.random_model, args.delta, args.seed)
    collection, latents = generate_synthetic(model, args.tasks, args.classes, args.shots, args.seed)
    save_tasks(collection, args.out)  # makes the directory
    save_latents(latents, Path(args.out) / "latents.json")


def _config(args, **fields) -> TrainConfig:
    """The E-step options common to train and infer plus fields; bad values are usage errors."""
    try:
        return TrainConfig(e_tol=args.e_tol, max_e_iters=args.max_e_iters, **fields)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def cmd_train(args) -> None:
    config = _config(
        args, tau0=args.tau0, tau1=args.tau1, batch_size=args.batch,
        jitter=args.jitter, seed=args.seed, max_batches=args.max_batches,
    )
    collection = load_tasks(args.data)
    model, log_rows = train(
        collection,
        args.task_themes,
        args.image_themes,
        config,
        delta=args.delta,
        threads=args.threads,
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_model(model, out / "model.json")
    write_training_log(out / "training_log.csv", log_rows)


def cmd_infer(args) -> None:
    config = _config(args)
    model = load_model(args.model)
    collection = load_tasks(args.data)
    # Only lambda and the counters are read, so each block drops r when it is done.
    parts = list(map(Posterior.classes, estep_blocks(collection, model, config)))
    warn_estep_waste("infer", parts, config)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_lambda_csv(out, collection.ids, np.concatenate([p.lam for p in parts]))


def cmd_distance(args) -> None:
    test_ids, test_lambdas = read_lambda_csv(args.test_lambdas)
    _, train_lambdas = read_lambda_csv(args.train_lambdas)
    mean_kl = distance_matrix(test_lambdas, train_lambdas)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_distance_csv(out, test_ids, mean_kl)


def cmd_select(args) -> None:
    test_ids, test_lambdas = read_lambda_csv(args.test_lambdas)
    train_ids, train_lambdas = read_lambda_csv(args.train_lambdas)
    if args.count < 0 or args.count > len(train_ids):
        raise UsageError(
            f"--count must lie in [0, {len(train_ids)}], got {args.count}"
        )
    indices = select_tasks(train_lambdas, test_lambdas, args.count)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_selection(out, [train_ids[i] for i in indices])


def cmd_diagram(args) -> None:
    ids, distances = read_distance_csv(args.distances)
    accuracy_table = read_accuracy_csv(args.accuracies)
    unknown = sorted(set(accuracy_table) - set(ids))
    if unknown:
        raise DataError(f"accuracy file has unknown task ids: {unknown}")
    missing = sorted(set(ids) - set(accuracy_table))
    if missing:
        raise DataError(f"accuracy file is missing task ids: {missing}")
    accuracies = np.asarray([accuracy_table[i] for i in ids])
    bins = correlation_diagram(distances, accuracies, args.bins)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_diagram_csv(out, bins)


_THREADS_HELP = "accepted for compatibility; has no effect"
_MAX_E_ITERS_HELP = ("cap on each E-step's sweeps, every sweep of its SQUAREM cycles counted, "
                     "the stabilizing sweep included")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ldcc",
        description="Co-clustering of classification tasks: synthetic data, "
        "online training, task embeddings, and similarity tools.",
    )
    parser.add_argument("--version", action="version", version=f"ldcc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a synthetic task collection")
    source = gen.add_mutually_exclusive_group(required=True)
    source.add_argument("--model", help="checkpoint JSON to sample from")
    source.add_argument(
        "--random-model",
        nargs=3,
        type=_positive(int),
        metavar=("L", "K", "D"),
        help="sample from a random model with L task themes, K image themes, "
        "dimension D",
    )
    gen.add_argument("--tasks", type=_positive(int), required=True, help="number of tasks")
    gen.add_argument("--classes", type=_positive(int), required=True, help="classes per task")
    gen.add_argument("--shots", type=_positive(int), required=True, help="samples per class")
    gen.add_argument("--seed", type=_seed, default=0)
    gen.add_argument(
        "--delta", type=_positive(float), default=0.5,
        help="symmetric task-theme prior for --random-model (default 0.5)",
    )
    gen.add_argument("--out", required=True, help="output directory")
    gen.set_defaults(func=cmd_gen)

    tr = sub.add_parser("train", help="train shared themes on a task collection")
    tr.add_argument("--data", required=True, help="collection manifest JSON")
    tr.add_argument("--task-themes", type=_positive(int), required=True, metavar="L")
    tr.add_argument("--image-themes", type=_positive(int), required=True, metavar="K")
    tr.add_argument("--delta", type=_positive(float), default=0.5)
    tr.add_argument(
        "--tau0", type=float, default=100.0,
        help="step-size delay; mini-batches only (a whole-collection batch uses rho = 1)",
    )
    tr.add_argument(
        "--tau1", type=float, default=0.51,
        help="step-size decay exponent; must lie in (0.5, 1]; mini-batches only "
             "(a whole-collection batch uses rho = 1)",
    )
    tr.add_argument("--batch", type=int, default=500)
    tr.add_argument("--e-tol", type=float, default=1e-3)
    tr.add_argument("--max-e-iters", type=int, default=100, help=_MAX_E_ITERS_HELP)
    tr.add_argument("--jitter", type=float, default=1e-6)
    tr.add_argument("--seed", type=_seed, default=0)
    tr.add_argument("--max-batches", type=int, default=100)
    tr.add_argument("--threads", type=_positive(int), default=1, help=_THREADS_HELP)
    tr.add_argument("--out", required=True, help="output directory")
    tr.set_defaults(func=cmd_train)

    inf = sub.add_parser("infer", help="infer task embeddings under a model")
    inf.add_argument("--model", required=True, help="checkpoint JSON")
    inf.add_argument("--data", required=True, help="collection manifest JSON")
    inf.add_argument("--e-tol", type=float, default=1e-3)
    inf.add_argument("--max-e-iters", type=int, default=100, help=_MAX_E_ITERS_HELP)
    inf.add_argument("--threads", type=_positive(int), default=1, help=_THREADS_HELP)
    inf.add_argument("--out", required=True, help="output CSV path")
    inf.set_defaults(func=cmd_infer)

    dist = sub.add_parser("distance", help="mean KL from test tasks to training tasks")
    dist.add_argument("--test-lambdas", required=True)
    dist.add_argument("--train-lambdas", required=True)
    dist.add_argument("--out", required=True, help="output CSV path")
    dist.set_defaults(func=cmd_distance)

    sel = sub.add_parser("select", help="pick the closest training tasks")
    sel.add_argument("--test-lambdas", required=True)
    sel.add_argument("--train-lambdas", required=True)
    sel.add_argument("--count", type=int, required=True, metavar="M")
    sel.add_argument("--out", required=True, help="output id list path")
    sel.set_defaults(func=cmd_select)

    dia = sub.add_parser("diagram", help="distance-vs-accuracy correlation diagram")
    dia.add_argument("--distances", required=True, help="CSV from 'distance'")
    dia.add_argument("--accuracies", required=True, help="CSV task_id,accuracy")
    dia.add_argument("--bins", type=_positive(int), required=True, metavar="J")
    dia.add_argument("--out", required=True, help="output CSV path")
    dia.set_defaults(func=cmd_diagram)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING, stream=sys.stderr)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 2
    try:
        args.func(args)
        _echo_config(args, out_is_dir=args.command in ("gen", "train"))
        return 0
    except UsageError as exc:
        print(f"ldcc {args.command}: error: {exc}", file=sys.stderr)
        return 2
    except (FormatError, CheckpointError, DataError, ModelError, OSError) as exc:
        print(f"ldcc {args.command}: error: {exc}", file=sys.stderr)
        return 3
    except (DomainError, NumericError, FloatingPointError) as exc:
        print(f"ldcc {args.command}: error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
