"""Files of every written format keep their bytes, and the feature pipeline
keeps calling the module globals that the benchmark's tracer wraps."""

import hashlib
import wave

import numpy as np
import pytest

from damnet import features, trainer
from damnet.builder import DenseNetConfig
from damnet.checkpoint import save_checkpoint
from damnet.features import FilterbankConfig, frame_count
from damnet.formats import (
    CmvnStats,
    ManifestEntry,
    Metrics,
    UtteranceFeatures,
    save_cmvn_stats,
    write_archive,
    write_metrics_log,
)
from damnet.model import build_model


def utterances(labelled: bool) -> list[UtteranceFeatures]:
    """Two utterances of exact binary fractions, one with a non-ASCII id."""
    out = []
    for utt_id, t in (("utt-a", 5), ("ütt-b", 3)):
        frames = ((np.arange(t * 12) * 7 % 23 - 11) / 8).astype(np.float32).reshape(t, 3, 4)
        out.append(UtteranceFeatures(utt_id, frames, np.arange(t) % 3 if labelled else None))
    return out


STATS = CmvnStats(mean=((np.arange(12) - 5) / 4).reshape(3, 4),
                  var=((np.arange(12) + 1) / 8).reshape(3, 4), frame_count=8)
HISTORY = [Metrics(1, 0.01, 2.5, 0.25, 2.25, 0.3125, 1.5),
           Metrics(2, 0.005, 1.75, 0.5, 2.0, 0.4375, 1.25)]

# SHA-256 of each file: a writer may change its bytes only on purpose
WRITERS = {
    "labelled.fbk": (
        lambda path: write_archive(utterances(True), path),
        "c38bdcf6ed8db4942bbf737a6d5e23eb582401362d6edd21cc042ef4dfab1909"),
    "unlabelled.fbk": (
        lambda path: write_archive(utterances(False), path),
        "40cf40ab7c36bd8ff9e880f438294ceb4cc570204e68bb0d642790f9e5c0de16"),
    "plain22.ckpt": (
        lambda path: save_checkpoint(
            build_model(DenseNetConfig(variant="plain", depth=22, num_classes=10), 3), path),
        "3dfbe6addd461432a4e005b7ab451007ea7f55269580def8a6f92b9988c777ba"),
    "bc16.ckpt": (
        lambda path: save_checkpoint(build_model(
            DenseNetConfig(variant="BC", depth=16, compression=0.5, num_classes=10), 3), path),
        "091c1b98641ec11002e23b76dc5387d019e12c617ca5d850b96b15c129480038"),
    "fbank.cmvn.json": (
        lambda path: save_cmvn_stats(STATS, path, FilterbankConfig()),
        "db11eeeb775ecdbe97c84402e0428a7d4a7182988b9027216fbe81b0c6eb6aec"),
    "plain.cmvn.json": (
        lambda path: save_cmvn_stats(STATS, path),
        "0b7d248f52607429133c40129cec5924ac4dd28c447d2d2b4c7c03faca7124c5"),
    "metrics.log": (
        lambda path: write_metrics_log(path, HISTORY),
        "53feffb1059162aca9e25d9b35fb21c6e6174fd788701e3eadb045de3700fcb6"),
}


@pytest.mark.parametrize("name", WRITERS)
def test_written_files_keep_their_golden_digest(tmp_path, name):
    write, digest = WRITERS[name]
    write(tmp_path / name)
    assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest


def test_pipeline_calls_the_globals_the_benchmark_wraps(tmp_path, monkeypatch):
    """perfbench's tracer replaces these module attributes; a caller that
    bound the function some other way would drop its metric silently."""
    calls = {}

    def count(module, name):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    for name in ("read_wav", "compute_logmel", "append_deltas"):
        count(features, name)
    for name in ("splice_context", "apply_cmvn"):
        count(trainer, name)
    entries = []
    for u, samples in enumerate([4000, 6000]):
        wav, labels = tmp_path / f"u{u}.wav", tmp_path / f"u{u}.lab"
        with wave.open(str(wav), "wb") as handle:
            handle.setnchannels(1)
            handle.setsampwidth(2)
            handle.setframerate(16000)
            handle.writeframes((np.arange(samples) % 200 - 100).astype("<i2").tobytes())
        labels.write_text(" 1" * frame_count(samples, FilterbankConfig()))
        entries.append(features.ManifestEntry(f"u{u}", wav, labels))
    assert features.ManifestEntry is ManifestEntry
    utts = features.featurize_manifest(entries, FilterbankConfig())
    trainer.build_frame_dataset(utts, features.compute_cmvn_stats(utts))
    assert calls == dict.fromkeys(
        ["read_wav", "compute_logmel", "append_deltas", "splice_context", "apply_cmvn"], 2)
