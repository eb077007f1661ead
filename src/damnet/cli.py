"""Command-line entry point: inspect, featurize, train, eval, gradcheck,
synthdata."""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .builder import ArchitectureTable, DenseNetConfig, plan_architecture
from .checkpoint import load_checkpoint, save_checkpoint
from .exceptions import ConfigError, DataError, FormatError, NumericError, ShapeError
from .features import FilterbankConfig, compute_cmvn_stats, featurize_manifest
from .formats import (
    RunKeys,
    check_ranges,
    load_cmvn_stats,
    parse_manifest,
    read_archive,
    save_cmvn_stats,
    write_archive,
    write_metrics_log,
)
from .gradcheck import GRADCHECK_TOLERANCE, gradcheck_report
from .model import build_model
from .runconfig import config_from, load_run_config, require_path
from .trainer import (
    TrainConfig,
    build_frame_dataset,
    evaluate,
    fit,
    make_synthetic_dataset,
    split_validation,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERIC = 4


def _size(hw) -> str:
    return f"{hw[0]}x{hw[1]}"


def _render_header(table: ArchitectureTable) -> str:
    cfg = table.config
    name = "DenseNet" if cfg.variant == "plain" else f"DenseNet-{cfg.variant}"
    parts = [
        f"{name} depth={cfg.depth}",
        f"effective_depth={table.effective_depth}",
        f"blocks={cfg.blocks}",
        f"layers_per_block={table.layers_per_block}",
        f"growth_rate={cfg.growth_rate}",
        f"compression={cfg.compression}",
        f"input={cfg.input_channels}x{cfg.input_height}x{cfg.input_width}",
        f"classes={cfg.num_classes}",
    ]
    return "  ".join(parts)


def _machine_lines(table: ArchitectureTable) -> list[str]:
    lines = ["#stage\tkind\tlayers\toutput\tin_channels\tout_channels\tparams"]
    for stage in table.stages:
        lines.append("\t".join([
            stage.name, stage.kind, stage.layers, _size(stage.out_size),
            str(stage.in_channels), str(stage.out_channels), str(stage.param_count),
        ]))
    lines.append(f"total\t{table.total_params}")
    return lines


def _human_lines(table: ArchitectureTable) -> list[str]:
    rows = [("stage", "layers", "output", "channels", "params")]
    for stage in table.stages:
        output = _size(stage.out_size)
        if stage.mid_size is not None:
            output = f"{_size(stage.mid_size)} / {output}"
        rows.append((stage.name, stage.layers, output,
                     f"{stage.in_channels}->{stage.out_channels}",
                     f"{stage.param_count:,}"))
    rows.append(("total", "", "", "", f"{table.total_params:,}"))
    widths = [max(len(row[i]) for row in rows) for i in range(5)]
    return ["  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()
            for row in rows]


def cmd_inspect(config: dict, machine: bool) -> int:
    table = plan_architecture(config_from(DenseNetConfig, config))
    if machine:
        print("\n".join(_machine_lines(table)))
    else:
        print(_render_header(table))
        print("\n".join(_human_lines(table)))
    return EXIT_OK


def cmd_featurize(config: dict) -> int:
    manifest = require_path(config, "manifest", "to featurize")
    archive_path = require_path(config, "output_archive", "to featurize")
    stats_path = require_path(config, "stats_file", "to featurize")
    filterbank = config_from(FilterbankConfig, config)
    entries = parse_manifest(manifest)
    utterances = featurize_manifest(entries, filterbank, add_deltas=config["add_deltas"])
    stats = compute_cmvn_stats(utterances)  # rejects the corpus before any file is written
    write_archive(utterances, archive_path)
    save_cmvn_stats(stats, stats_path, filterbank)
    total = sum(u.num_frames for u in utterances)
    print(f"featurized {len(utterances)} utterances, {total} frames -> {archive_path}")
    print(f"normalization stats ({stats.frame_count} frames) -> {stats_path}")
    return EXIT_OK


def _stats_sidecar(checkpoint_path: str) -> str:
    return checkpoint_path + ".cmvn.json"


def _load_datasets(config: dict):
    train_path = require_path(config, "train_archive", "to train")
    train_utts = read_archive(train_path)
    if config["val_archive"]:
        val_utts = read_archive(config["val_archive"])
    else:
        train_utts, val_utts = split_validation(
            train_utts, config["validation_fraction"], config["seed"]
        )
    if config["cmvn_stats"]:
        stats = load_cmvn_stats(config["cmvn_stats"])
    else:
        stats = compute_cmvn_stats(train_utts)
    left, right = config["context_left"], config["context_right"]
    train_data = build_frame_dataset(train_utts, stats, left, right)
    val_data = build_frame_dataset(val_utts, stats, left, right)
    return train_data, val_data, stats


def _check_context(config: dict, model_config: DenseNetConfig) -> None:
    """Refuse a context window other than the model's input height, before any splicing."""
    c, h, w = model_config.input_channels, model_config.input_height, model_config.input_width
    context = config["context_left"] + 1 + config["context_right"]
    if h != context:
        raise ConfigError(f"model input_height={h} does not match context window of "
                          f"{context} frames: it takes {(c, h, w)} inputs, not {(c, context, w)}")


def _check_geometry(model, data) -> None:
    want = (model.config.input_channels, model.config.input_height,
            model.config.input_width)
    got = tuple(data.features.shape[1:])
    if got != want:
        raise ConfigError(
            f"model input geometry {want} does not match data geometry {got}"
        )
    top = int(data.labels.max())
    if top >= model.config.num_classes:
        raise ConfigError(
            f"model has num_classes={model.config.num_classes} but data "
            f"contains label {top}"
        )


def cmd_train(config: dict) -> int:
    model_config = config_from(DenseNetConfig, config)
    train_config = config_from(TrainConfig, config)
    checkpoint_path = require_path(config, "checkpoint", "to train")
    _check_context(config, model_config)
    train_data, val_data, stats = _load_datasets(config)
    model = build_model(model_config, train_config.seed)
    _check_geometry(model, train_data)
    _check_geometry(model, val_data)
    history = fit(model, train_data, val_data, train_config)
    save_checkpoint(model, checkpoint_path)
    # persist whichever stats the model was trained with, so eval can reuse them;
    # written after the checkpoint, so a run that fails leaves neither
    stats_out = _stats_sidecar(checkpoint_path)
    save_cmvn_stats(stats, stats_out)
    if config["metrics_log"]:
        write_metrics_log(config["metrics_log"], history)
    best = min(history, key=lambda m: m.val_loss)
    print(f"trained {len(history)} epochs on {len(train_data)} frames "
          f"({len(val_data)} validation)")
    print(f"best epoch {best.epoch}: val_loss={best.val_loss:.6f} "
          f"val_accuracy={best.val_accuracy:.4f}")
    print(f"checkpoint -> {checkpoint_path}")
    print(f"normalization stats -> {stats_out}")
    return EXIT_OK


def cmd_eval(config: dict) -> int:
    checkpoint_path = require_path(config, "checkpoint", "to evaluate")
    archive_path = require_path(config, "eval_archive", "to evaluate")
    model = load_checkpoint(checkpoint_path)
    _check_context(config, model.config)
    utterances = read_archive(archive_path)
    if config["cmvn_stats"]:
        stats = load_cmvn_stats(config["cmvn_stats"])
    elif os.path.exists(_stats_sidecar(checkpoint_path)):
        stats = load_cmvn_stats(_stats_sidecar(checkpoint_path))
    else:
        stats = None
    data = build_frame_dataset(utterances, stats,
                               config["context_left"], config["context_right"])
    _check_geometry(model, data)
    result = evaluate(model, data)
    print(f"frames {len(data)}  loss {result.loss:.6f}  "
          f"accuracy {result.accuracy:.4f}  frame_error {result.frame_error_rate:.4f}")
    confusion = result.confusion
    present = np.flatnonzero(confusion.sum(axis=1))
    for label in present[:20]:
        row = confusion[label]
        total = int(row.sum())
        print(f"class {label}: frames {total} correct {int(row[label])} "
              f"accuracy {row[label] / total:.4f}")
    # nonzero cells come in (target, predicted) order, at most one per frame;
    # a stable sort by count keeps that order among ties
    targets, predicted = np.divmod(np.flatnonzero(confusion), len(confusion))
    off = targets != predicted
    targets, predicted = targets[off], predicted[off]
    if len(targets):
        counts = confusion[targets, predicted]
        top = np.argsort(-counts, kind="stable")[:5]
        summary = ", ".join(f"{targets[i]}->{predicted[i]} x{counts[i]}" for i in top)
        print(f"top confusions: {summary}")
    return EXIT_OK


def cmd_gradcheck(config: dict) -> int:
    report = gradcheck_report(seed=config["seed"], instances=10)
    worst = 0.0
    for name, err in report.items():
        print(f"{name} {err:.3e}")
        worst = max(worst, err)
    ok = worst < GRADCHECK_TOLERANCE
    print(f"gradcheck {'OK' if ok else 'FAILED'}: worst {worst:.3e} "
          f"(tolerance {GRADCHECK_TOLERANCE:.0e})")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_synthdata(config: dict) -> int:
    archive_path = require_path(config, "output_archive", "to write synthetic data")
    keys = ("synth_classes", "synth_frames_per_class", "synth_separation")
    check_ranges(RunKeys, **{key: config[key] for key in keys})  # before anything is drawn
    utterances = make_synthetic_dataset(*(config[key] for key in keys), config["seed"])
    write_archive(utterances, archive_path)
    total = sum(u.num_frames for u in utterances)
    print(f"wrote {len(utterances)} synthetic utterances, {total} frames "
          f"-> {archive_path}")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key=value run configuration file")
    common.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override a config key (repeatable; wins over the file)")
    common.add_argument("--seed", help="override the seed key")
    common.add_argument("--deterministic", action="store_true",
                        help="set deterministic=true")

    parser = argparse.ArgumentParser(
        prog="damnet",
        description="Densely connected convolutional network engine for "
                    "frame-level acoustic classification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    inspect = sub.add_parser("inspect", parents=[common],
                             help="print the planned architecture table")
    inspect.add_argument("--machine", action="store_true",
                         help="tab-separated output, one stage per line")
    sub.add_parser("featurize", parents=[common],
                   help="extract features for a manifest into an archive")
    sub.add_parser("train", parents=[common], help="train a model on an archive")
    sub.add_parser("eval", parents=[common],
                   help="evaluate a checkpoint on a labeled archive")
    sub.add_parser("gradcheck", parents=[common],
                   help="finite-difference check of every layer primitive")
    sub.add_parser("synthdata", parents=[common],
                   help="generate a synthetic labeled feature archive")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        overrides = list(args.set)
        if args.seed is not None:
            overrides.append(f"seed={args.seed}")
        if args.deterministic:
            overrides.append("deterministic=true")
        config = load_run_config(args.config, overrides)
        if args.command == "inspect":
            return cmd_inspect(config, args.machine)
        commands = {"featurize": cmd_featurize, "train": cmd_train, "eval": cmd_eval,
                    "gradcheck": cmd_gradcheck, "synthdata": cmd_synthdata}
        return commands[args.command](config)
    except (ConfigError, ShapeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
