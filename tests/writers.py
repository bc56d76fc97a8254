"""Writers for the three dataset formats the package reads.

Each is the inverse of its reader in caterpillar.data.  The format magics
are stated here again, as README "On-disk formats" gives them, so that a
wrong constant in the reader fails its round trip instead of writing itself.
"""

from __future__ import annotations

import struct

import numpy as np

from caterpillar.data import LabeledImages
from caterpillar.errors import FormatError

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801
RAW_MAGIC = b"RAW1"


def save_cifar10_binary(path: str, data: LabeledImages) -> None:
    """Inverse of load_cifar10_binary for [0,1] images quantized to bytes."""
    if data.images.shape[1:] != (32, 32, 3):
        raise FormatError(f"cifar writer: images must be (N,32,32,3), got {data.images.shape}")
    pixels = np.round(data.images * 255.0).astype(np.uint8)
    planes = pixels.transpose(0, 3, 1, 2).reshape(-1, 3072)
    records = np.concatenate(
        [data.labels.astype(np.uint8)[:, None], planes], axis=1
    )
    with open(path, "wb") as f:
        f.write(records.tobytes())


def save_idx(image_path: str, label_path: str, data: LabeledImages) -> None:
    """Inverse of load_idx for single-channel [0,1] images."""
    if data.images.shape[3] != 1:
        raise FormatError(f"idx writer: images must have 1 channel, got {data.images.shape}")
    n, h, w, _ = data.images.shape
    with open(image_path, "wb") as f:
        f.write(struct.pack(">IIII", IDX_IMAGE_MAGIC, n, h, w))
        f.write(np.round(data.images[..., 0] * 255.0).astype(np.uint8).tobytes())
    with open(label_path, "wb") as f:
        f.write(struct.pack(">II", IDX_LABEL_MAGIC, n))
        f.write(data.labels.astype(np.uint8).tobytes())


def save_raw_blob(path: str, data: LabeledImages) -> None:
    """Inverse of load_raw_blob: float32 images, then the class count and labels."""
    n, h, w, c = data.images.shape
    with open(path, "wb") as f:
        f.write(RAW_MAGIC)
        f.write(struct.pack("<IIII", n, h, w, c))
        f.write(data.images.astype("<f4").tobytes())
        f.write(struct.pack("<I", data.class_count))
        f.write(data.labels.astype("<u4").tobytes())
