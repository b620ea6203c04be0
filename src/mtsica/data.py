"""Dataset containers and the on-disk dataset directory format.

A dataset is an ordered collection of trials.  Every trial carries a
``(channels, samples)`` float64 signal matrix and one label per supervised
target.  On disk a dataset is a directory::

    manifest.json   dimensions, target schema, payload encoding
    signals.bin     little-endian float64, trial-major, row-major C x T
    labels.bin      little-endian float64, trial-major, one row per trial

Labels are stored as float64 even for categorical targets (class indices
are integral-valued floats).  Serialization is deterministic: saving the
same dataset twice produces byte-identical files.
"""

from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .linalg import spectral_norm

_FORMAT_TAG = "mtsica-dataset-v1"
_PAYLOAD_DTYPE = "f64le"
_LAYOUT = "trial-major row-major CxT"

# Dataset checks the signals this many entries at a time, so the check's
# boolean temporary stays 64 KB whatever the dataset's size
_FINITE_CHUNK = 1 << 16

KIND_CONTINUOUS = "continuous"
KIND_CATEGORICAL = "categorical"


class DatasetFormatError(ValueError):
    """Raised when an on-disk dataset directory is malformed."""


@dataclass(frozen=True)
class TargetSchema:
    """Schema of one supervised target.

    Parameters
    ----------
    name : str
        Unique target name.
    kind : str
        ``"continuous"`` (squared-error regression) or ``"categorical"``
        (softmax classification).
    n_classes : int, optional
        Number of classes; required for categorical targets, forbidden
        otherwise.
    """

    name: str
    kind: str
    n_classes: int | None = None

    def __post_init__(self):
        if not self.name:
            raise ValueError("target name must be non-empty")
        if self.kind not in (KIND_CONTINUOUS, KIND_CATEGORICAL):
            raise ValueError(f"unknown target kind {self.kind!r}")
        if self.kind == KIND_CATEGORICAL:
            if self.n_classes is None or self.n_classes < 2:
                raise ValueError("categorical targets need n_classes >= 2")
        elif self.n_classes is not None:
            raise ValueError("continuous targets must not set n_classes")

    def to_manifest(self) -> dict:
        d = {"name": self.name, "kind": self.kind}
        if self.n_classes is not None:
            d["n_classes"] = self.n_classes
        return d

    @classmethod
    def from_manifest(cls, d: dict) -> "TargetSchema":
        if not isinstance(d, dict) or "name" not in d or "kind" not in d:
            raise DatasetFormatError(f"malformed target entry: {d!r}")
        n_classes = d.get("n_classes")
        if "n_classes" in d and type(n_classes) is not int:
            raise DatasetFormatError(f"non-integer n_classes: {d!r}")
        try:
            return cls(str(d["name"]), str(d["kind"]), n_classes)
        except ValueError as e:
            raise DatasetFormatError(f"bad target entry {d!r}: {e}") from e


def _own_readonly(x) -> np.ndarray:
    # Private read-only float64 C-order array; copies only when the input
    # would otherwise stay writeable through the caller.
    arr = np.ascontiguousarray(x, dtype=np.float64)
    if arr is x and arr.flags.writeable:
        arr = arr.copy()
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class Dataset:
    """Immutable multi-trial dataset.

    Parameters
    ----------
    signals : ndarray, shape (N, C, T)
        Stacked trial signals, all finite.
    labels : ndarray, shape (N, M)
        One label per trial per target; categorical entries must be
        integral values in ``[0, n_classes)``.
    targets : tuple of TargetSchema
        Supervised target schema; ``M == len(targets)`` and ``M <= C``.
    """

    signals: np.ndarray
    labels: np.ndarray
    targets: tuple[TargetSchema, ...]

    def __post_init__(self):
        sig = _own_readonly(self.signals)
        if sig.ndim != 3:
            raise ValueError(f"signals must be (N, C, T), got shape {sig.shape}")
        n, c, t = sig.shape
        if min(n, c, t) < 1:
            raise ValueError(f"empty dataset dimensions {sig.shape}")
        flat = sig.reshape(-1)
        if not all(np.isfinite(flat[lo:lo + _FINITE_CHUNK]).all()
                   for lo in range(0, flat.size, _FINITE_CHUNK)):
            raise ValueError("signals contain non-finite values")
        targets = tuple(self.targets)
        names = [s.name for s in targets]
        if len(set(names)) != len(names):
            raise ValueError("duplicate target names")
        m = len(targets)
        if m > c:
            raise ValueError(f"more targets ({m}) than channels ({c})")
        lab = _own_readonly(self.labels)
        if lab.shape != (n, m):
            raise ValueError(f"labels must have shape ({n}, {m}), got {lab.shape}")
        if m and not np.all(np.isfinite(lab)):
            raise ValueError("labels contain non-finite values")
        for j, schema in enumerate(targets):
            if schema.kind == KIND_CATEGORICAL:
                col = lab[:, j]
                if np.any(col != np.round(col)) or np.any(col < 0) or \
                        np.any(col >= schema.n_classes):
                    raise ValueError(
                        f"target {schema.name!r}: categorical labels must be "
                        f"integers in [0, {schema.n_classes})")
        object.__setattr__(self, "signals", sig)
        object.__setattr__(self, "labels", lab)
        object.__setattr__(self, "targets", targets)

    @property
    def n_trials(self) -> int:
        return self.signals.shape[0]

    @property
    def channels(self) -> int:
        return self.signals.shape[1]

    @property
    def samples(self) -> int:
        return self.signals.shape[2]

    @property
    def n_targets(self) -> int:
        return len(self.targets)


def concat_trials(dataset: Dataset) -> np.ndarray:
    """Concatenate all trials along time into one ``(C, N*T)`` matrix.

    Trials appear in dataset order; used by baselines that pool trials.
    """
    n, c, t = dataset.signals.shape
    return dataset.signals.transpose(1, 0, 2).reshape(c, n * t)


def preprocess(dataset: Dataset, center: bool = False,
               rescale: bool = False) -> Dataset:
    """Optional preprocessing applied uniformly across all trials.

    ``center`` subtracts the per-channel mean pooled over trials and time.
    ``rescale`` divides every signal by one global scalar, the root mean
    squared trial spectral norm, so the average squared 2-norm of a trial
    matrix becomes 1.  Both transforms are global (not per-trial), so a
    single effective mixing matrix still relates sources to signals and
    mixing-recovery metrics remain comparable.

    Raises
    ------
    ValueError
        If ``rescale`` meets signals that are zero everywhere.
    """
    sig = np.array(dataset.signals)  # writable copy
    if center:
        sig -= sig.mean(axis=(0, 2))[None, :, None]
    if rescale:
        scale = float(np.sqrt(np.mean(spectral_norm(sig) ** 2)))
        if scale <= 0.0:
            raise ValueError("cannot rescale all-zero signals")
        sig /= scale
    sig.flags.writeable = False  # nothing else holds it: Dataset keeps it
    return Dataset(sig, dataset.labels, dataset.targets)


def save_dataset(dataset: Dataset, path, generator: dict | None = None) -> None:
    """Write a dataset directory (manifest + payload), deterministically.

    Parameters
    ----------
    dataset : Dataset
    path : str or Path
        Directory to create (parents included).
    generator : dict, optional
        Generation parameters echoed verbatim into the manifest.
    """
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    manifest = {
        "format": _FORMAT_TAG,
        "n_trials": dataset.n_trials,
        "channels": dataset.channels,
        "samples": dataset.samples,
        "targets": [s.to_manifest() for s in dataset.targets],
        "payload_dtype": _PAYLOAD_DTYPE,
        "layout": _LAYOUT,
    }
    if generator is not None:
        manifest["generator"] = generator
    text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    (out / "manifest.json").write_bytes(text.encode("utf-8"))
    write_matrix_f64(out / "signals.bin", dataset.signals)
    write_matrix_f64(out / "labels.bin", dataset.labels)


def load_dataset(path) -> Dataset:
    """Load and validate a dataset directory written by :func:`save_dataset`.

    Raises
    ------
    DatasetFormatError
        On missing files, malformed manifest, payload size mismatch, or
        non-finite / out-of-range payload values.
    """
    root = Path(path)
    mf_path = root / "manifest.json"
    if not mf_path.is_file():
        raise DatasetFormatError(f"missing manifest: {mf_path}")
    try:
        manifest = json.loads(mf_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as e:
        raise DatasetFormatError(f"manifest is not valid JSON: {e}") from e
    if not isinstance(manifest, dict):
        raise DatasetFormatError("manifest must be a JSON object")
    for key in ("n_trials", "channels", "samples", "targets",
                "payload_dtype", "layout"):
        if key not in manifest:
            raise DatasetFormatError(f"manifest missing key {key!r}")
    if manifest["payload_dtype"] != _PAYLOAD_DTYPE:
        raise DatasetFormatError(
            f"unsupported payload_dtype {manifest['payload_dtype']!r}")
    if manifest["layout"] != _LAYOUT:
        raise DatasetFormatError(f"unsupported layout {manifest['layout']!r}")
    n, c, t = (manifest[k] for k in ("n_trials", "channels", "samples"))
    if any(type(v) is not int for v in (n, c, t)):  # bool is not int here
        raise DatasetFormatError(
            f"non-integer dimensions in manifest: N={n!r} C={c!r} T={t!r}")
    if min(n, c, t) < 1:
        raise DatasetFormatError(f"invalid dimensions N={n} C={c} T={t}")
    if not isinstance(manifest["targets"], list):
        raise DatasetFormatError("manifest targets must be a list")
    targets = tuple(TargetSchema.from_manifest(d) for d in manifest["targets"])
    m = len(targets)

    try:
        signals = read_matrix_f64(root / "signals.bin", (n, c, t))
        labels = read_matrix_f64(root / "labels.bin", (n, m))
    except OSError as e:
        raise DatasetFormatError(f"cannot read payload: {e}") from e
    signals.flags.writeable = False  # nothing else holds it: Dataset keeps it
    try:
        return Dataset(signals, labels, targets)
    except ValueError as e:
        raise DatasetFormatError(f"payload failed validation: {e}") from e


# --- raw float64 files: dataset payloads, matrices, model parameters ---

def write_matrix_f64(path, arr: np.ndarray) -> None:
    """Write an array as raw little-endian float64, row-major."""
    np.ascontiguousarray(arr, dtype="<f8").tofile(path)


def read_matrix_f64(path, shape=None) -> np.ndarray:
    """Read a raw little-endian float64 array of ``shape``.

    With ``shape=None`` the file must hold a square matrix of at least
    one value; its size is inferred from the byte count.  A file that
    cannot be opened raises ``OSError``; a byte count that does not fit
    raises :class:`DatasetFormatError`.
    """
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        if size % 8:
            raise DatasetFormatError(f"{path}: size {size} not a multiple of 8")
        count = size // 8
        if shape is None:
            side = math.isqrt(count)
            if side == 0 or side * side != count:
                raise DatasetFormatError(
                    f"{path}: {count} values do not form a square matrix")
            shape = (side, side)
        if math.prod(shape) != count:
            raise DatasetFormatError(
                f"{path}: expected {math.prod(shape)} values, found {count}")
        return np.fromfile(f, dtype="<f8", count=count).reshape(shape)


def write_commented_text(path, comments, lines) -> None:
    """Write each of ``comments`` as a ``# `` line, then ``lines``, one per
    line, to ``path``, or to stdout when ``path`` is ``None`` or empty."""
    text = "\n".join([*(f"# {c}" for c in comments), *lines]) + "\n"
    if path:
        Path(path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def write_matrix_text(path, arr: np.ndarray, header_lines=()) -> None:
    """Human-readable sidecar for a raw matrix file.

    ``header_lines`` are emitted as ``#``-prefixed comments (one per line)
    ahead of the numbers, so provenance such as the resolved configuration
    rides along with the values.
    """
    arr = np.atleast_2d(np.asarray(arr, dtype=np.float64))
    shape = f"shape: {' '.join(str(s) for s in arr.shape)}"
    write_commented_text(path, [*header_lines, shape],
                         [" ".join(f"{v:.17g}" for v in row) for row in arr])
