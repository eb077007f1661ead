import contextlib
import functools
import json
import wave
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from damnet.exceptions import ConfigError, DamnetError, DataError, FormatError, ShapeError
from damnet.features import (
    FilterbankConfig,
    _analysis_constants,
    append_deltas,
    apply_cmvn,
    compute_cmvn_stats,
    compute_logmel,
    featurize_manifest,
    featurize_utterance,
    frame_count,
    mel_filter_edges,
    mel_filterbank,
    splice_context,
)
from damnet.formats import (
    LABEL_MAGIC,
    CmvnStats,
    ManifestEntry,
    UtteranceFeatures,
    _stats_text,
    atomic_write,
    load_cmvn_stats,
    parse_manifest,
    read_archive,
    read_label_file,
    read_wav,
    save_cmvn_stats,
    write_archive,
)


def rng(seed=0):
    return np.random.default_rng(seed)


def write_test_wav(path, samples, rate=16000):
    scaled = np.clip(np.asarray(samples) * 32767.0, -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as handle:
        handle.setnchannels(1)
        handle.setsampwidth(2)
        handle.setframerate(rate)
        handle.writeframes(scaled.tobytes())


def test_default_filterbank_configuration():
    cfg = FilterbankConfig()
    cfg.validate()
    assert cfg.num_filters == 40
    assert cfg.frame_samples == 400
    assert cfg.shift_samples == 160
    assert cfg.resolved_high_freq == 8000.0
    assert cfg.pre_emphasis == 0.97


class TestLogmel:
    def test_one_second_gives_98_frames(self):
        cfg = FilterbankConfig()
        out = compute_logmel(np.zeros(16000), cfg)
        assert out.shape == (98, 40)

    @given(st.integers(400, 50000))
    @settings(max_examples=30, deadline=None)
    def test_frame_count_formula(self, num_samples):
        cfg = FilterbankConfig()
        out = compute_logmel(np.zeros(num_samples), cfg)
        assert out.shape[0] == frame_count(num_samples, cfg)
        assert out.shape[0] == 1 + (num_samples - 400) // 160

    def test_silence_floors_to_log_floor(self):
        cfg = FilterbankConfig()
        out = compute_logmel(np.zeros(8000), cfg)
        np.testing.assert_array_equal(out, np.float32(np.log(cfg.log_floor)))

    def test_sine_peaks_in_matching_band(self):
        cfg = FilterbankConfig()
        t = np.arange(16000) / 16000.0
        out = compute_logmel(0.5 * np.sin(2 * np.pi * 1000.0 * t), cfg)
        edges = mel_filter_edges(cfg)
        best = int(out.mean(axis=0).argmax())
        assert edges[best] < 1000.0 < edges[best + 2]

    def test_too_short_wave(self):
        with pytest.raises(DataError):
            compute_logmel(np.zeros(399), FilterbankConfig())

    def test_validated_once_per_config_and_refused_on_every_call(self, monkeypatch):
        _analysis_constants.cache_clear()
        calls = []
        validate = FilterbankConfig.validate
        monkeypatch.setattr(FilterbankConfig, "validate",
                            lambda cfg: (calls.append(cfg), validate(cfg))[1])
        good, bad = FilterbankConfig(num_filters=17), FilterbankConfig(num_filters=18, low_freq=9e3)
        for _ in range(3):
            compute_logmel(np.zeros(800), good)
            with pytest.raises(ConfigError, match="low_freq"):
                compute_logmel(np.zeros(800), bad)
        assert calls == [good, bad, bad, bad]

    def test_bitwise_equal_to_index_matrix_framing(self):
        def index_matrix_logmel(samples, cfg):
            emphasized = np.concatenate(
                [samples[:1], samples[1:] - cfg.pre_emphasis * samples[:-1]])
            num_frames = 1 + (len(samples) - cfg.frame_samples) // cfg.shift_samples
            idx = (cfg.shift_samples * np.arange(num_frames)[:, None]
                   + np.arange(cfg.frame_samples)[None, :])
            windowed = emphasized[idx] * np.hamming(cfg.frame_samples)
            spectrum = np.abs(np.fft.rfft(windowed, n=cfg.fft_size, axis=1))
            energies = spectrum @ mel_filterbank(cfg).T
            return np.log(np.maximum(energies, cfg.log_floor)).astype(np.float32)

        configs = [FilterbankConfig(), FilterbankConfig(num_filters=24, frame_length_ms=20.0)]
        # alternate the configurations so each call must use its own window
        # and filterbank
        for num_samples in (400, 401, 560, 80_000):
            samples = 0.1 * rng(num_samples).standard_normal(num_samples)
            for cfg in configs + configs:
                expected = index_matrix_logmel(samples, cfg)
                out = compute_logmel(samples, cfg)
                assert out.dtype == expected.dtype and out.shape == expected.shape
                assert out.tobytes() == expected.tobytes()

    def test_bad_config_rejected(self):
        with pytest.raises(ConfigError):
            FilterbankConfig(low_freq=9000.0).validate()
        with pytest.raises(ConfigError):
            FilterbankConfig(fft_size=300).validate()  # below frame and not a power of two

    @pytest.mark.parametrize("key,value", [("sample_rate", 2**32), ("sample_rate", 10**400),
                                           ("fft_size", 2**17), ("fft_size", 2**40),
                                           ("num_filters", 258), ("num_filters", 10**10)])
    def test_bounds_refused_before_any_float_or_array(self, key, value):
        # a WAV header's u32 rate, 2^16 FFT points, fft_size // 2 + 1 = 257 bins
        with pytest.raises(ConfigError, match=f"^{key} must be in 1\\.\\."):
            FilterbankConfig(**{key: value}).validate()

    def test_bounds_are_inclusive(self):
        FilterbankConfig(num_filters=257).validate()
        FilterbankConfig(fft_size=2**16).validate()
        with pytest.raises(ConfigError, match="fft_size 512 smaller than frame"):
            FilterbankConfig(sample_rate=2**32 - 1).validate()  # in range, then its frame is too long


class TestMelFilters:
    def test_centers_strictly_increasing(self):
        edges = mel_filter_edges(FilterbankConfig())
        centers = edges[1:-1]
        assert np.all(np.diff(centers) > 0)

    def test_filters_nonnegative_and_cover_band(self):
        cfg = FilterbankConfig()
        weights = mel_filterbank(cfg)
        assert weights.shape == (40, 257)
        assert np.all(weights >= 0)
        bin_freqs = np.arange(257) * (cfg.sample_rate / cfg.fft_size)
        edges = mel_filter_edges(cfg)
        interior = (bin_freqs > edges[0]) & (bin_freqs < edges[-1])
        assert np.all(weights.sum(axis=0)[interior] > 0)


class TestDeltas:
    def test_constant_input_gives_zero_derivatives(self):
        static = np.full((20, 40), 3.25, dtype=np.float32)
        out = append_deltas(static)
        assert out.shape == (20, 3, 40)
        np.testing.assert_array_equal(out[:, 0], static)
        np.testing.assert_array_equal(out[:, 1], 0.0)
        np.testing.assert_array_equal(out[:, 2], 0.0)

    def test_ramp_has_unit_delta_in_interior(self):
        static = np.arange(20.0, dtype=np.float64)[:, None] * np.ones((1, 4))
        out = append_deltas(static)
        np.testing.assert_allclose(out[2:-2, 1], 1.0, atol=1e-12)

    def test_single_frame_defined_and_zero(self):
        out = append_deltas(np.ones((1, 5), dtype=np.float32))
        assert out.shape == (1, 3, 5)
        np.testing.assert_array_equal(out[:, 1:], 0.0)

    @given(st.integers(0, 2 ** 31), st.floats(-3, 3), st.floats(-3, 3))
    @settings(max_examples=25, deadline=None)
    def test_delta_operator_is_linear(self, seed, a, b):
        r = np.random.default_rng(seed)
        x = r.standard_normal((12, 5))
        y = r.standard_normal((12, 5))
        combined = append_deltas(a * x + b * y)[:, 1]
        separate = a * append_deltas(x)[:, 1] + b * append_deltas(y)[:, 1]
        np.testing.assert_allclose(combined, separate, atol=1e-9)


def make_utterance(seed, frames=10, channels=3, bins=8, labels=True, utt_id=None):
    r = rng(seed)
    return UtteranceFeatures(
        utt_id or f"utt{seed}",
        r.standard_normal((frames, channels, bins)).astype(np.float32),
        r.integers(0, 5, size=frames).astype(np.int64) if labels else None,
    )


def with_crc(text):
    """The JSON object ``text`` as a statistics file holds it: canonical JSON
    (sorted keys, no spaces) plus a ``crc32`` key, the CRC32 of the canonical
    JSON of the rest."""
    payload = json.loads(text)
    canonical = functools.partial(json.dumps, sort_keys=True, separators=(",", ":"))
    return canonical({**payload, "crc32": zlib.crc32(canonical(payload).encode())})


def forge_crc32(prefix, target):
    """The 4 bytes whose CRC32 after ``prefix`` is ``target``. CRC32 is
    affine over GF(2) in data of a fixed length, so the bytes are solved for
    from the CRC32 change that each of their 32 bits makes alone."""
    base = zlib.crc32(prefix + bytes(4))
    basis = {}  # top bit -> (CRC32 change, the bits that make it)
    for bit in range(32):
        change, bits = zlib.crc32(prefix + (1 << bit).to_bytes(4, "little")) ^ base, 1 << bit
        while change and change.bit_length() - 1 in basis:
            top_change, top_bits = basis[change.bit_length() - 1]
            change, bits = change ^ top_change, bits ^ top_bits
        if change:
            basis[change.bit_length() - 1] = (change, bits)
    want, solution = target ^ base, 0
    for top in sorted(basis, reverse=True):
        if want >> top & 1:
            want, solution = want ^ basis[top][0], solution ^ basis[top][1]
    assert want == 0, "no 4 bytes reach the target"
    return solution.to_bytes(4, "little")


class TestCmvn:
    def test_identical_frames_floor_variance(self):
        frames = np.tile(rng().standard_normal((1, 3, 8)), (6, 1, 1)).astype(np.float32)
        stats = compute_cmvn_stats([UtteranceFeatures("u", frames)])
        np.testing.assert_array_equal(stats.var, 1e-8)

    def test_two_point_hand_computation(self):
        frames = np.stack([np.zeros((1, 4)), np.full((1, 4), 2.0)]).astype(np.float32)
        stats = compute_cmvn_stats([UtteranceFeatures("u", frames)])
        np.testing.assert_allclose(stats.mean, 1.0)
        np.testing.assert_allclose(stats.var, 1.0)

    def test_pooled_equals_union(self):
        corpora = [make_utterance(i, frames=5 + i) for i in range(4)]
        pooled = compute_cmvn_stats(corpora)
        stacked = np.concatenate([u.frames for u in corpora], axis=0).astype(np.float64)
        np.testing.assert_allclose(pooled.mean, stacked.mean(axis=0), atol=1e-10)
        np.testing.assert_allclose(
            pooled.var, np.maximum(stacked.var(axis=0), 1e-8), atol=1e-10
        )
        assert pooled.frame_count == stacked.shape[0]

    def test_apply_identity_stats(self):
        utt = make_utterance(3)
        stats = CmvnStats(np.zeros((3, 8)), np.ones((3, 8)), 2)
        np.testing.assert_allclose(apply_cmvn(utt.frames, stats), utt.frames, atol=1e-6)

    def test_normalized_corpus_is_centered(self):
        corpora = [make_utterance(i, frames=30) for i in range(3)]
        stats = compute_cmvn_stats(corpora)
        normalized = np.concatenate([apply_cmvn(u.frames, stats) for u in corpora])
        assert np.abs(normalized.mean(axis=0)).max() < 1e-5
        np.testing.assert_allclose(normalized.var(axis=0), 1.0, atol=1e-3)

    def test_not_idempotent_on_raw_data(self):
        utt = make_utterance(4, frames=30)
        stats = compute_cmvn_stats([utt])
        once = apply_cmvn(utt.frames, stats)
        twice = apply_cmvn(once, stats)
        assert not np.allclose(once, twice)

    def test_shape_mismatch(self):
        stats = CmvnStats(np.zeros((3, 8)), np.ones((3, 8)), 2)
        with pytest.raises(ShapeError):
            apply_cmvn(np.zeros((4, 3, 9), dtype=np.float32), stats)

    def test_empty_corpus(self):
        with pytest.raises(DataError):
            compute_cmvn_stats([])

    @pytest.mark.parametrize("text", [
        with_crc('{"frame_count": 1e400, "mean": [0.0], "var": [1.0]}'),
        with_crc('{"frame_count": 2, "mean": [1' + "0" * 400 + '], "var": [1.0]}'),
        '{"frame_count": 2, "mean": ' + "[" * 3000 + "]" * 3000 + ', "var": [1.0]}',
        '{"frame_count": 2, "mean": [0.0], "var": [1.0]}',
        with_crc('{"frame_count": 2, "mean": [0.0], "var": [1.0]}').replace(
            '"frame_count":2', '"frame_count":3'),
        '[' + with_crc('{"frame_count": 2, "mean": [0.0], "var": [1.0]}') + ']',
    ], ids=["frame-count-overflow", "mean-overflow", "deep-nesting", "no-crc", "crc-mismatch",
            "not-an-object"])
    def test_malformed_stats_file(self, tmp_path, text):
        path = tmp_path / "stats.json"
        path.write_text(text)
        with pytest.raises(FormatError, match="stats.json"):
            load_cmvn_stats(path)

    @pytest.mark.parametrize("key,value", [("mean", [["1.5", True]]), ("var", [[1.0, True]]),
                                           ("mean", [["0.5", 1.5]]), ("frame_count", 2.7),
                                           ("frame_count", True), ("frame_count", -5),
                                           ("frame_count", "2")])
    def test_stats_file_takes_only_json_numbers(self, tmp_path, key, value):
        """Strings and booleans are not numbers, and frame_count is a
        non-negative integer, even behind a valid crc32 key."""
        path = tmp_path / "stats.json"
        path.write_text(_stats_text({"frame_count": 2, "mean": [[0.5, 1.5]],
                                     "var": [[1.0, 2.0]], key: value}))
        with pytest.raises(FormatError, match="stats.json"):
            load_cmvn_stats(path)

    def test_stats_file_is_canonical_json_with_crc(self, tmp_path):
        path = tmp_path / "stats.json"
        stats = compute_cmvn_stats([make_utterance(1, frames=6)])
        save_cmvn_stats(stats, path, FilterbankConfig())
        text = path.read_text()
        payload = json.loads(text)
        del payload["crc32"]
        assert text == with_crc(json.dumps(payload)) + "\n"
        loaded = load_cmvn_stats(path)
        np.testing.assert_array_equal(loaded.mean, stats.mean)
        np.testing.assert_array_equal(loaded.var, stats.var)

    def test_stats_file_corruption_fuzz(self, tmp_path):
        """One-byte flips and cuts: a corrupted stats file either fails with
        FormatError or loads the saved statistics unchanged."""
        path = tmp_path / "stats.json"
        stats = compute_cmvn_stats([make_utterance(1, frames=6)])
        save_cmvn_stats(stats, path, FilterbankConfig())
        data = path.read_bytes()
        r = rng(6)
        corrupted = [data[:cut] for cut in r.integers(0, len(data), 200)]
        for position, mask in zip(r.integers(0, len(data), 1200), r.integers(1, 256, 1200)):
            flipped = bytearray(data)
            flipped[position] ^= mask
            corrupted.append(bytes(flipped))
        for case in corrupted:
            path.write_bytes(case)
            with contextlib.suppress(FormatError):
                loaded = load_cmvn_stats(path)
                assert loaded.frame_count == stats.frame_count, case
                assert loaded.mean.tobytes() == stats.mean.tobytes(), case
                assert loaded.var.tobytes() == stats.var.tobytes(), case


class TestSplice:
    @pytest.mark.parametrize("left,right", [(5, 5), (0, 0), (3, 1)])
    def test_single_gather_equals_gather_then_transpose(self, left, right):
        frames = rng(6).standard_normal((17, 3, 40)).astype(np.float32)
        idx = np.clip(np.arange(17)[:, None] + np.arange(-left, right + 1)[None, :], 0, 16)
        reference = np.ascontiguousarray(frames[idx].transpose(0, 2, 1, 3))
        spliced = splice_context(frames, left, right)
        assert spliced.flags.c_contiguous
        assert spliced.dtype == reference.dtype and spliced.shape == reference.shape
        assert spliced.tobytes() == reference.tobytes()

    def test_interior_windows_are_exact_slices(self):
        frames = rng().standard_normal((30, 3, 40)).astype(np.float32)
        spliced = splice_context(frames, 5, 5)
        assert spliced.shape == (30, 3, 11, 40)
        t = 12
        np.testing.assert_array_equal(
            spliced[t], frames[t - 5 : t + 6].transpose(1, 0, 2)
        )

    def test_edge_replication_at_start(self):
        frames = rng(1).standard_normal((20, 3, 4)).astype(np.float32)
        spliced = splice_context(frames, 5, 5)
        for row in range(6):  # offsets -5..0 all clip to frame 0
            np.testing.assert_array_equal(spliced[0, :, row], frames[0])

    def test_frame_count_preserved(self):
        for t in (1, 2, 7, 23):
            frames = rng(t).standard_normal((t, 3, 6)).astype(np.float32)
            assert splice_context(frames).shape[0] == t


class TestArchive:
    def test_empty_archive(self, tmp_path):
        path = tmp_path / "empty.fbk"
        write_archive([], path)
        assert read_archive(path) == []

    def test_round_trip(self, tmp_path):
        utts = [make_utterance(0), make_utterance(1, labels=False), make_utterance(2, frames=1)]
        path = tmp_path / "data.fbk"
        write_archive(utts, path)
        loaded = read_archive(path)
        assert [u.utt_id for u in loaded] == [u.utt_id for u in utts]
        for original, restored in zip(utts, loaded):
            np.testing.assert_array_equal(original.frames, restored.frames)
            if original.labels is None:
                assert restored.labels is None
            else:
                np.testing.assert_array_equal(original.labels, restored.labels)
        # byte-level: rewriting the loaded archive reproduces the file
        second = tmp_path / "data2.fbk"
        write_archive(loaded, second)
        assert path.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize("label", [-1, 2**32 + 1])
    def test_labels_outside_u32_rejected(self, tmp_path, label):
        utt = make_utterance(0, utt_id="wide")
        utt.labels[-1] = label
        path = tmp_path / "data.fbk"
        with pytest.raises(DataError, match="'wide'"):
            write_archive([make_utterance(1), utt], path)
        assert not path.exists()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.fbk"
        path.write_bytes(b"XXXX" + b"\x00" * 8)
        with pytest.raises(FormatError):
            read_archive(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "bad.fbk"
        path.write_bytes(b"FBK1" + (9).to_bytes(4, "little") + (0).to_bytes(4, "little"))
        with pytest.raises(FormatError):
            read_archive(path)

    def test_truncation_names_record(self, tmp_path):
        utts = [make_utterance(0), make_utterance(1)]
        path = tmp_path / "data.fbk"
        write_archive(utts, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 10])
        with pytest.raises(FormatError) as err:
            read_archive(path)
        assert "record 1" in str(err.value)

    def test_failed_write_keeps_previous_archive(self, tmp_path):
        path = tmp_path / "data.fbk"
        write_archive([make_utterance(0)], path)
        before = path.read_bytes()
        # the second record is not an utterance: the write fails after the first
        with pytest.raises(AttributeError):
            write_archive([make_utterance(1), None], path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["data.fbk"]

    def test_unlabeled_last_record_whose_trailer_spells_the_label_magic(self, tmp_path):
        # the last frame value is solved for so that the archive's CRC32
        # trailer reads LBL1; the trailer must not be taken for a label block
        utt = make_utterance(3, labels=False)
        path = tmp_path / "data.fbk"
        write_archive([utt], path)
        prefix = path.read_bytes()[:-8]  # all but the last value and the trailer
        target = int.from_bytes(LABEL_MAGIC, "little")
        utt.frames[-1, -1, -1] = np.frombuffer(forge_crc32(prefix, target), "<f4")[0]
        assert np.isfinite(utt.frames[-1, -1, -1])
        write_archive([utt], path)
        data = path.read_bytes()
        assert data[-4:] == LABEL_MAGIC
        (loaded,) = read_archive(path)
        assert loaded.utt_id == utt.utt_id and loaded.labels is None
        assert loaded.frames.tobytes() == utt.frames.tobytes()
        write_archive([loaded], path)
        assert path.read_bytes() == data

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "data.fbk"
        write_archive([make_utterance(0)], path)
        path.write_bytes(path.read_bytes() + b"\x99")
        with pytest.raises(FormatError):
            read_archive(path)


class TestAtomicWrite:
    @pytest.mark.parametrize("existing", [b"previous", None])
    def test_failed_write_leaves_target_as_it_was(self, tmp_path, existing):
        path = tmp_path / "out.bin"
        if existing is not None:
            path.write_bytes(existing)
        with pytest.raises(RuntimeError):
            with atomic_write(path) as handle:
                handle.write(b"partial")
                raise RuntimeError("midway")
        assert [p.name for p in tmp_path.iterdir()] == ([] if existing is None else ["out.bin"])
        if existing is not None:
            assert path.read_bytes() == existing

    def test_write_replaces_target(self, tmp_path):
        path = tmp_path / "out.bin"
        path.write_bytes(b"previous")
        with atomic_write(path) as handle:
            handle.write(b"new")
        assert path.read_bytes() == b"new"
        assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]


class TestWav:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "tone.wav"
        t = np.arange(8000) / 16000.0
        write_test_wav(path, 0.25 * np.sin(2 * np.pi * 440 * t))
        samples, rate = read_wav(path)
        assert rate == 16000
        assert len(samples) == 8000
        assert np.abs(samples).max() <= 1.0

    def test_stereo_rejected(self, tmp_path):
        path = tmp_path / "stereo.wav"
        with wave.open(str(path), "wb") as handle:
            handle.setnchannels(2)
            handle.setsampwidth(2)
            handle.setframerate(16000)
            handle.writeframes(b"\x00" * 64)
        with pytest.raises(DataError):
            read_wav(path)

    def test_garbage_rejected(self, tmp_path):
        path = tmp_path / "not.wav"
        path.write_bytes(b"this is not audio")
        with pytest.raises(FormatError):
            read_wav(path)

    def test_corruption_fuzz(self, tmp_path):
        """One-byte flips in the first 64 bytes, and cuts: featurizing a
        corrupted WAV either works or fails with a package error."""
        path = tmp_path / "a.wav"
        write_test_wav(path, rng(4).standard_normal(4000) * 0.1)
        data = path.read_bytes()
        r = rng(5)
        corrupted = [data[:cut] for cut in r.integers(0, len(data), 200)]
        for position, mask in zip(r.integers(0, 64, 1200), r.integers(1, 256, 1200)):
            flipped = bytearray(data)
            flipped[position] ^= mask
            corrupted.append(bytes(flipped))
        for case in corrupted:
            path.write_bytes(case)
            with contextlib.suppress(DamnetError):
                featurize_manifest([ManifestEntry("fuzz", path)], FilterbankConfig())


class TestManifest:
    def test_parse(self, tmp_path):
        path = tmp_path / "list.txt"
        path.write_text("# comment\nutt1 a.wav\nutt2 b.wav b.lab\n\n")
        entries = parse_manifest(path)
        assert len(entries) == 2
        assert entries[0] == ManifestEntry("utt1", entries[0].audio_path, None)
        assert entries[1].label_path is not None

    def test_bad_line_names_location(self, tmp_path):
        path = tmp_path / "list.txt"
        path.write_text("onlyonefield\n")
        with pytest.raises(DataError) as err:
            parse_manifest(path)
        assert ":1" in str(err.value)

    def test_label_file(self, tmp_path):
        path = tmp_path / "x.lab"
        path.write_text("0 1 2\n3\n")
        np.testing.assert_array_equal(read_label_file(path), [0, 1, 2, 3])
        path.write_text("0 -1\n")
        with pytest.raises(DataError):
            read_label_file(path)
        path.write_text(f"0 {10**20}\n")
        with pytest.raises(DataError):
            read_label_file(path)
        # int() would read these as 10, 3, 3 and 7
        for token in ("1_0", "+3", "\u0663", "\uff17"):
            path.write_text(f"0 {token} 2\n", encoding="utf-8")
            with pytest.raises(DataError) as err:
                read_label_file(path)
            assert str(path) in str(err.value) and repr(token) in str(err.value)


class TestFeaturize:
    def test_manifest_to_utterances(self, tmp_path):
        cfg = FilterbankConfig()
        wav = tmp_path / "a.wav"
        write_test_wav(wav, rng().standard_normal(8000) * 0.1)
        labels = tmp_path / "a.lab"
        expected_frames = frame_count(8000, cfg)
        labels.write_text(" ".join(["1"] * expected_frames))
        manifest = tmp_path / "list.txt"
        manifest.write_text(f"a {wav} {labels}\n")
        utts = featurize_manifest(parse_manifest(manifest), cfg)
        assert len(utts) == 1
        assert utts[0].frames.shape == (expected_frames, 3, 40)
        assert utts[0].labels is not None

    def test_sample_rate_mismatch(self, tmp_path):
        wav = tmp_path / "a.wav"
        write_test_wav(wav, np.zeros(8000), rate=8000)
        with pytest.raises(DataError):
            featurize_utterance(ManifestEntry("a", wav), FilterbankConfig())

    def test_label_length_mismatch(self, tmp_path):
        wav = tmp_path / "a.wav"
        write_test_wav(wav, np.zeros(8000))
        labels = tmp_path / "a.lab"
        labels.write_text("1 2 3")
        with pytest.raises(DataError):
            featurize_utterance(ManifestEntry("a", wav, labels), FilterbankConfig())

    def test_missing_audio_names_utterance(self, tmp_path):
        entry = ManifestEntry("ghost", tmp_path / "missing.wav")
        with pytest.raises(DataError) as err:
            featurize_manifest([entry], FilterbankConfig())
        assert "ghost" in str(err.value)

    def test_without_deltas_single_channel(self, tmp_path):
        wav = tmp_path / "a.wav"
        write_test_wav(wav, rng(1).standard_normal(8000) * 0.1)
        utt = featurize_utterance(ManifestEntry("a", wav), FilterbankConfig(),
                                  add_deltas=False)
        assert utt.frames.shape[1] == 1


class TestUtteranceValidation:
    def test_label_length_checked(self):
        with pytest.raises(DataError):
            UtteranceFeatures("u", np.zeros((4, 3, 8), dtype=np.float32),
                              np.zeros(3, dtype=np.int64))

    def test_nonfinite_rejected(self):
        frames = np.zeros((2, 1, 4), dtype=np.float32)
        frames[0, 0, 0] = np.nan
        with pytest.raises(DataError):
            UtteranceFeatures("u", frames)
