"""Bit-exact dataset ingestion and the seeded synthetic dataset.

Three on-disk formats, all with explicit endianness:
  * CIFAR-10 binary: 3073-byte records, 1 label byte then 1024 R / 1024 G /
    1024 B bytes in row-major 32x32 order
  * IDX: big-endian magic + dims; images rank 3 unsigned bytes, labels rank 1
  * raw blob: magic "RAW1", little-endian u32 dims (N, H, W, C), f32 data,
    u32 class count, N u32 labels

Pixels are scaled to [0, 1]; per-channel normalization is opt-in.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, ShapeError
from .tensor import Rng, ensure_nhwc


@dataclass
class LabeledImages:
    images: np.ndarray  # (N, H, W, Cin) float, values in [0, 1] unless normalized
    labels: np.ndarray  # (N,) int64 in [0, class_count)
    class_count: int

    def __post_init__(self):
        self.images = ensure_nhwc(self.images, "dataset images")
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.labels.shape != (self.images.shape[0],):
            raise ShapeError(
                f"dataset: {self.images.shape[0]} images vs labels {self.labels.shape}"
            )
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.class_count):
            raise FormatError(f"dataset: label outside [0, {self.class_count})")

    def normalized(self, mean, std) -> "LabeledImages":
        """Per-channel (x - mean) / std; mean/std are length-C sequences."""
        mean = np.asarray(mean, dtype=self.images.dtype)
        std = np.asarray(std, dtype=self.images.dtype)
        return LabeledImages((self.images - mean) / std, self.labels, self.class_count)


def _read_as(path: str, images, labels, class_count: int) -> LabeledImages:
    """LabeledImages whose dimension and label errors name the file they were read from."""
    try:
        return LabeledImages(images, labels, class_count)
    except (FormatError, ShapeError) as exc:
        raise FormatError(f"{path}: {exc}") from None


_CIFAR_RECORD = 3073
_CIFAR_CLASSES = 10


def load_cifar10_binary(paths: list[str] | str) -> LabeledImages:
    """Parse one or more CIFAR-10 binary batch files.

    The format has no header and no record count: a file cut exactly at a
    record boundary loads as a shorter batch.  Only a size that is not a
    positive multiple of the 3073-byte record is rejected.
    """
    if isinstance(paths, str):
        paths = [paths]
    images, labels = [], []
    for path in paths:
        with open(path, "rb") as f:
            raw = f.read()
        if len(raw) == 0 or len(raw) % _CIFAR_RECORD:
            raise FormatError(
                f"{path}: size {len(raw)} is not a positive multiple of {_CIFAR_RECORD} "
                f"(truncation at byte offset {len(raw) - len(raw) % _CIFAR_RECORD})"
            )
        records = np.frombuffer(raw, dtype=np.uint8).reshape(-1, _CIFAR_RECORD)
        lab = records[:, 0].astype(np.int64)
        bad = np.nonzero(lab >= _CIFAR_CLASSES)[0]
        if bad.size:
            raise FormatError(
                f"{path}: label byte {lab[bad[0]]} > 9 at record {int(bad[0])} "
                f"(byte offset {int(bad[0]) * _CIFAR_RECORD})"
            )
        # per record: 1024 R then 1024 G then 1024 B planes, row-major 32x32
        planes = records[:, 1:].reshape(-1, 3, 32, 32)
        images.append(planes.transpose(0, 2, 3, 1).astype(np.float64) / 255.0)
        labels.append(lab)
    return LabeledImages(np.concatenate(images), np.concatenate(labels), _CIFAR_CLASSES)


_IDX_IMAGE_MAGIC = 0x00000803
_IDX_LABEL_MAGIC = 0x00000801


def load_idx(image_path: str, label_path: str) -> LabeledImages:
    """Parse an IDX image/label file pair (Fashion-MNIST layout).

    The class count is the largest label + 1 (1 for an empty set).
    """
    with open(image_path, "rb") as f:
        raw = f.read()
    if len(raw) < 16:
        raise FormatError(f"{image_path}: truncated header ({len(raw)} bytes)")
    magic, n, h, w = struct.unpack(">IIII", raw[:16])
    if magic != _IDX_IMAGE_MAGIC:
        raise FormatError(
            f"{image_path}: image magic 0x{magic:08x} != 0x{_IDX_IMAGE_MAGIC:08x}"
        )
    if len(raw) != 16 + n * h * w:
        raise FormatError(
            f"{image_path}: expected {16 + n * h * w} bytes for {n} {h}x{w} images, "
            f"got {len(raw)}"
        )
    images = (
        np.frombuffer(raw, dtype=np.uint8, offset=16)
        .reshape(n, h, w, 1)
        .astype(np.float64)
        / 255.0
    )
    with open(label_path, "rb") as f:
        lraw = f.read()
    if len(lraw) < 8:
        raise FormatError(f"{label_path}: truncated header ({len(lraw)} bytes)")
    lmagic, ln = struct.unpack(">II", lraw[:8])
    if lmagic != _IDX_LABEL_MAGIC:
        raise FormatError(
            f"{label_path}: label magic 0x{lmagic:08x} != 0x{_IDX_LABEL_MAGIC:08x}"
        )
    if ln != n:
        raise FormatError(f"{label_path}: label count {ln} != image count {n} in {image_path}")
    if len(lraw) != 8 + ln:
        raise FormatError(f"{label_path}: expected {8 + ln} bytes, got {len(lraw)}")
    labels = np.frombuffer(lraw, dtype=np.uint8, offset=8).astype(np.int64)
    return _read_as(image_path, images, labels, int(labels.max()) + 1 if ln else 1)


_RAW_MAGIC = b"RAW1"


def load_raw_blob(path: str) -> LabeledImages:
    """Parse the raw-blob format (arbitrary-dataset escape hatch)."""
    with open(path, "rb") as f:
        raw = f.read()
    if raw[:4] != _RAW_MAGIC:
        raise FormatError(f"{path}: magic {raw[:4]!r} != {_RAW_MAGIC!r}")
    if len(raw) < 20:
        raise FormatError(f"{path}: truncated dimension header")
    n, h, w, c = struct.unpack("<IIII", raw[4:20])
    need = 20 + 4 * n * h * w * c + 4 + 4 * n
    if len(raw) != need:
        raise FormatError(f"{path}: expected {need} bytes, got {len(raw)}")
    images = np.frombuffer(raw, dtype="<f4", count=n * h * w * c, offset=20)
    images = images.reshape(n, h, w, c).astype(np.float64)
    off = 20 + 4 * n * h * w * c
    (k,) = struct.unpack("<I", raw[off : off + 4])
    labels = np.frombuffer(raw, dtype="<u4", count=n, offset=off + 4).astype(np.int64)
    return _read_as(path, images, labels, int(k))


def synth_blobs(seed: int, n: int, h: int, w: int, cin: int, k: int) -> LabeledImages:
    """Seeded synthetic classification set: per-class template + clipped noise.

    Class templates are uniform in [0, 1]; sample i gets label i mod k and its
    class template plus N(0, 0.1^2) noise, clipped back to [0, 1].
    """
    if min(h, w, cin) < 1:
        raise FormatError(f"synth: image dims must be >= 1, got {(h, w, cin)}")
    if k < 1:
        raise FormatError(f"synth: need at least one class, got {k}")
    if k > n:
        raise FormatError(f"synth: need at least one sample per class ({k} > {n})")
    rng = Rng(seed)
    templates = rng.uniform(k * h * w * cin).reshape(k, h, w, cin)
    labels = np.arange(n, dtype=np.int64) % k
    images = templates[labels]  # a fresh array, so noise and clip go in place
    noise = rng.normal(n * h * w * cin).reshape(n, h, w, cin)
    noise *= 0.1
    images += noise
    np.clip(images, 0.0, 1.0, out=images)
    return LabeledImages(images, labels, k)
