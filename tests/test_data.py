"""Dataset container, directory round trips, preprocessing, matrix files."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtsica.data import (Dataset, DatasetFormatError, TargetSchema,
                         concat_trials, load_dataset, preprocess,
                         read_matrix_f64, save_dataset, write_matrix_f64,
                         write_matrix_text)
from mtsica.linalg import spectral_norm


def tiny_dataset(n=4, c=3, t=16, m=2, seed=0):
    rng = np.random.default_rng(seed)
    signals = rng.normal(size=(n, c, t))
    targets = []
    labels = np.empty((n, m))
    for j in range(m):
        if j % 2 == 0:
            targets.append(TargetSchema(f"y{j}", "continuous"))
            labels[:, j] = rng.normal(size=n)
        else:
            targets.append(TargetSchema(f"y{j}", "categorical", n_classes=3))
            labels[:, j] = rng.integers(0, 3, size=n)
    return Dataset(signals, labels, tuple(targets))


# --- schema ---

def test_target_schema_validation():
    TargetSchema("a", "continuous")
    TargetSchema("b", "categorical", n_classes=2)
    with pytest.raises(ValueError):
        TargetSchema("", "continuous")
    with pytest.raises(ValueError):
        TargetSchema("a", "ordinal")
    with pytest.raises(ValueError):
        TargetSchema("a", "categorical")          # n_classes missing
    with pytest.raises(ValueError):
        TargetSchema("a", "categorical", n_classes=1)
    with pytest.raises(ValueError):
        TargetSchema("a", "continuous", n_classes=4)


def test_target_schema_manifest_round_trip():
    for s in (TargetSchema("y0", "continuous"),
              TargetSchema("lab", "categorical", n_classes=5)):
        assert TargetSchema.from_manifest(s.to_manifest()) == s
    with pytest.raises(DatasetFormatError):
        TargetSchema.from_manifest({"name": "x"})


# --- container validation ---

def test_dataset_shape_and_finite_validation():
    sig = np.zeros((2, 3, 8))
    Dataset(sig, np.zeros((2, 0)), ())
    with pytest.raises(ValueError):
        Dataset(np.zeros((3, 8)), np.zeros((3, 0)), ())       # not 3-d
    with pytest.raises(ValueError):
        Dataset(np.zeros((0, 3, 8)), np.zeros((0, 0)), ())    # empty
    bad = sig.copy()
    bad[1, 2, 3] = np.nan
    with pytest.raises(ValueError):
        Dataset(bad, np.zeros((2, 0)), ())


def test_dataset_rejects_more_targets_than_channels():
    targets = tuple(TargetSchema(f"y{j}", "continuous") for j in range(4))
    with pytest.raises(ValueError):
        Dataset(np.zeros((2, 3, 8)), np.zeros((2, 4)), targets)


def test_dataset_rejects_bad_categorical_labels():
    t = (TargetSchema("k", "categorical", n_classes=3),)
    sig = np.zeros((2, 2, 8))
    Dataset(sig, np.array([[0.0], [2.0]]), t)
    with pytest.raises(ValueError):
        Dataset(sig, np.array([[0.5], [1.0]]), t)     # non-integral
    with pytest.raises(ValueError):
        Dataset(sig, np.array([[0.0], [3.0]]), t)     # out of range
    with pytest.raises(ValueError):
        Dataset(sig, np.array([[-1.0], [0.0]]), t)


def test_dataset_rejects_duplicate_target_names():
    t = (TargetSchema("y", "continuous"), TargetSchema("y", "continuous"))
    with pytest.raises(ValueError):
        Dataset(np.zeros((2, 3, 8)), np.zeros((2, 2)), t)


def test_dataset_arrays_are_read_only_views():
    ds = tiny_dataset()
    with pytest.raises(ValueError):
        ds.signals[0, 0, 0] = 1.0


def test_dataset_does_not_mutate_caller_array():
    sig = np.random.default_rng(0).normal(size=(2, 2, 4))
    before = sig.copy()
    ds = Dataset(sig, np.zeros((2, 0)), ())
    assert sig.flags.writeable          # caller's array untouched
    assert np.array_equal(sig, before)
    assert not ds.signals.flags.writeable


def test_dimension_properties():
    ds = tiny_dataset(n=5, c=4, t=32, m=2)
    assert (ds.n_trials, ds.channels, ds.samples, ds.n_targets) == (5, 4, 32, 2)


def test_concat_trials_layout():
    ds = tiny_dataset(n=3, c=2, t=8, m=0)
    cat = concat_trials(ds)
    assert cat.shape == (2, 24)
    for i in range(3):
        assert np.array_equal(cat[:, i * 8:(i + 1) * 8], ds.signals[i])


# --- preprocessing ---

def test_preprocess_identity_by_default():
    ds = tiny_dataset()
    out, info = preprocess(ds)
    assert np.array_equal(out.signals, ds.signals)
    assert info["scale"] == 1.0 and info["channel_means"] is None


def test_preprocess_center_zeroes_channel_means():
    ds = tiny_dataset(seed=3)
    out, info = preprocess(ds, center=True)
    pooled = out.signals.mean(axis=(0, 2))
    assert np.max(np.abs(pooled)) < 1e-14
    assert np.allclose(info["channel_means"], ds.signals.mean(axis=(0, 2)))


def test_preprocess_rescale_normalizes_avg_sq_spectral_norm():
    ds = tiny_dataset(seed=4)
    out, info = preprocess(ds, rescale=True)
    sq = [spectral_norm(out.signals[i]) ** 2 for i in range(out.n_trials)]
    assert abs(np.mean(sq) - 1.0) < 1e-9
    assert info["scale"] > 0
    # global scalar: ratios between entries unchanged
    assert np.allclose(out.signals * info["scale"], ds.signals)


def test_preprocess_keeps_labels_and_schema():
    ds = tiny_dataset(m=2)
    out, _ = preprocess(ds, center=True, rescale=True)
    assert np.array_equal(out.labels, ds.labels)
    assert out.targets == ds.targets


# --- directory round trip ---

def test_save_load_round_trip(tmp_path):
    ds = tiny_dataset(m=2, seed=7)
    save_dataset(ds, tmp_path / "d")
    back = load_dataset(tmp_path / "d")
    assert np.array_equal(back.signals, ds.signals)
    assert np.array_equal(back.labels, ds.labels)
    assert back.targets == ds.targets


def test_save_is_byte_deterministic(tmp_path):
    ds = tiny_dataset(m=1, seed=9)
    save_dataset(ds, tmp_path / "a", generator={"recipe": "x", "seed": 1})
    save_dataset(ds, tmp_path / "b", generator={"recipe": "x", "seed": 1})
    for name in ("manifest.json", "signals.bin", "labels.bin"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


def test_manifest_is_sorted_json_with_generator_echo(tmp_path):
    ds = tiny_dataset(m=0)
    save_dataset(ds, tmp_path / "d", generator={"recipe": "multi_trial",
                                                "seed": 5})
    mf = json.loads((tmp_path / "d" / "manifest.json").read_text())
    assert mf["format"] == "mtsica-dataset-v1"
    assert mf["generator"] == {"recipe": "multi_trial", "seed": 5}
    keys = list(mf)
    assert keys == sorted(keys)


def test_load_rejects_missing_and_corrupt_pieces(tmp_path):
    ds = tiny_dataset(m=1)
    root = tmp_path / "d"
    save_dataset(ds, root)

    with pytest.raises(DatasetFormatError):
        load_dataset(tmp_path / "absent")

    (root / "signals.bin").write_bytes(b"\0" * 8)      # wrong payload size
    with pytest.raises(DatasetFormatError):
        load_dataset(root)

    save_dataset(ds, root)
    mf = json.loads((root / "manifest.json").read_text())
    mf["payload_dtype"] = "f32le"
    (root / "manifest.json").write_text(json.dumps(mf))
    with pytest.raises(DatasetFormatError):
        load_dataset(root)

    (root / "manifest.json").write_text("{ not json")
    with pytest.raises(DatasetFormatError):
        load_dataset(root)


def test_load_rejects_bad_target_entries(tmp_path):
    root = tmp_path / "d"
    save_dataset(tiny_dataset(m=2), root)   # y0 continuous, y1 3 classes
    manifest = (root / "manifest.json").read_text()
    for m, patch in [(0, {"kind": "ordinal"}), (0, {"n_classes": 3}),
                     (1, {"n_classes": 2.5}), (1, {"n_classes": "3"}),
                     (1, {"n_classes": None}), (1, {"n_classes": True}),
                     (1, {"n_classes": 1}), (0, {"name": ""})]:
        mf = json.loads(manifest)
        mf["targets"][m].update(patch)
        (root / "manifest.json").write_text(json.dumps(mf))
        with pytest.raises(DatasetFormatError):
            load_dataset(root)


def test_load_rejects_non_integer_dimensions(tmp_path):
    root = tmp_path / "d"
    save_dataset(tiny_dataset(n=2, m=0), root)      # (2, 3, 16)
    manifest = (root / "manifest.json").read_text()
    for key, bad in [("n_trials", 2.5), ("n_trials", "2"),
                     ("n_trials", 2.0), ("n_trials", True),
                     ("n_trials", None), ("channels", 3.0),
                     ("samples", "16")]:
        mf = json.loads(manifest)
        mf[key] = bad
        (root / "manifest.json").write_text(json.dumps(mf))
        with pytest.raises(DatasetFormatError, match="non-integer"):
            load_dataset(root)
    (root / "manifest.json").write_text(manifest)
    assert load_dataset(root).signals.shape == (2, 3, 16)


def test_load_rejects_nonfinite_payload(tmp_path):
    ds = tiny_dataset(m=0)
    root = tmp_path / "d"
    save_dataset(ds, root)
    sig = np.array(ds.signals)
    sig[0, 0, 0] = np.inf
    (root / "signals.bin").write_bytes(sig.astype("<f8").tobytes())
    with pytest.raises(DatasetFormatError):
        load_dataset(root)


@given(n=st.integers(1, 4), c=st.integers(1, 3), t=st.integers(1, 12),
       seed=st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_round_trip_any_shape(tmp_path_factory, n, c, t, seed):
    rng = np.random.default_rng(seed)
    ds = Dataset(rng.normal(size=(n, c, t)), np.zeros((n, 0)), ())
    root = tmp_path_factory.mktemp("rt") / "d"
    save_dataset(ds, root)
    assert np.array_equal(load_dataset(root).signals, ds.signals)


# --- raw matrix files ---

def test_matrix_f64_round_trip(tmp_path):
    w = np.random.default_rng(1).normal(size=(4, 4))
    write_matrix_f64(tmp_path / "w.f64", w)
    assert np.array_equal(read_matrix_f64(tmp_path / "w.f64"), w)       # square inferred
    assert np.array_equal(read_matrix_f64(tmp_path / "w.f64", (4, 4)), w)

    theta = np.random.default_rng(2).normal(size=(3, 7))
    write_matrix_f64(tmp_path / "t.f64", theta)
    assert np.array_equal(read_matrix_f64(tmp_path / "t.f64", (3, 7)), theta)


def test_matrix_f64_rejects_bad_sizes(tmp_path):
    (tmp_path / "odd.f64").write_bytes(b"\0" * 12)
    with pytest.raises(DatasetFormatError):
        read_matrix_f64(tmp_path / "odd.f64")
    write_matrix_f64(tmp_path / "r.f64", np.zeros((2, 3)))
    with pytest.raises(DatasetFormatError):
        read_matrix_f64(tmp_path / "r.f64")            # 6 values, not square
    with pytest.raises(DatasetFormatError):
        read_matrix_f64(tmp_path / "r.f64", (4, 4))


def test_matrix_text_sidecar_parses_back(tmp_path):
    w = np.random.default_rng(3).normal(size=(3, 3))
    write_matrix_text(tmp_path / "w.txt", w, header_lines=["seed = 1"])
    text = (tmp_path / "w.txt").read_text()
    assert text.startswith("# seed = 1\n")
    parsed = np.loadtxt(tmp_path / "w.txt")
    assert np.allclose(parsed, w, rtol=0, atol=0)      # %.17g is lossless
