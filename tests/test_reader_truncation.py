"""Every binary reader rejects a truncated file at every byte offset.

Small files come from the writers in tests/writers.py; each is cut at every
offset and read directly (FormatError) and through the CLI (exit 2 with one
``error:`` line).  A CLI call costs milliseconds, so CIFAR-10 batches, at
3073 bytes a record, go through the CLI at drawn offsets only.  A CIFAR-10
batch has no header, so a cut exactly at a record boundary is a shorter,
valid batch: it must load as the leading records.  A checkpoint is cut at
every offset of its header and at drawn offsets of its float blob, and goes
through the CLI at a few of those cuts.
"""

import contextlib
import io
import os
import tempfile

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from caterpillar.cli import main
from caterpillar.data import (
    LabeledImages,
    load_cifar10_binary,
    load_idx,
    load_raw_blob,
)
from caterpillar.errors import FormatError
from caterpillar.models import ModelSpec, build_model, load_checkpoint, save_checkpoint
from caterpillar.tensor import Rng
from writers import save_cifar10_binary, save_idx, save_raw_blob

# A model that builds, so that only the reader can refuse a train run.
SPEC_FLAGS = ["--base-width", "8", "--depths", "1,1,1,1", "--patch-size", "1",
              "--input", "32,32,3", "--classes", "10"]
# No shrink phase: each example reads a file at every offset, so shrinking a
# failure would rerun those loops for minutes; the failing file is small anyway.
PROPERTY = settings(
    max_examples=6, deadline=None, derandomize=True, phases=[Phase.explicit, Phase.generate]
)


@st.composite
def datasets(draw, hw=None, channels=None, max_n=2):
    n = draw(st.integers(1, max_n))
    h, w = hw or (draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    c = channels or draw(st.integers(1, 3))
    k = draw(st.integers(1, 10))
    seed = draw(st.integers(0, 2**16))
    rng = Rng(seed)
    images = np.round(rng.uniform(n * h * w * c) * 255.0).reshape(n, h, w, c) / 255.0
    labels = np.array([draw(st.integers(0, k - 1)) for _ in range(n)], dtype=np.int64)
    return LabeledImages(images, labels, k)


def cli_rejects(cut, *argv):
    """The command exits 2 with one `error:` line naming the cut file, as reader errors do."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    lines = err.getvalue().splitlines()
    assert code == 2, (argv, err.getvalue())
    assert len(lines) == 1 and lines[0].startswith("error:") and cut in lines[0], err.getvalue()
    assert out.getvalue() == ""


def truncations(path):
    """Yield each byte offset, last first, with path cut to its first `offset` bytes.

    The file is whole again when the generator finishes.
    """
    with open(path, "rb") as f:
        full = f.read()
    for offset in reversed(range(len(full))):
        os.truncate(path, offset)
        yield offset
    with open(path, "wb") as f:
        f.write(full)


@PROPERTY
@given(
    data=datasets(hw=(32, 32), channels=3),
    cli_offsets=st.sets(st.integers(0, 2 * 3073 - 1), max_size=4),
)
def test_cifar_truncation(data, cli_offsets):
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "batch.bin")
        save_cifar10_binary(path, data)
        for offset in truncations(path):
            records, rest = divmod(offset, 3073)
            if offset and not rest:
                loaded = load_cifar10_binary(path)
                npt.assert_array_equal(loaded.labels, data.labels[:records])
                npt.assert_array_equal(loaded.images, data.images[:records])
                continue
            with pytest.raises(FormatError):
                load_cifar10_binary(path)
            if offset in cli_offsets or offset in (0, 3072):
                cli_rejects(path, "train", *SPEC_FLAGS, "--data-cifar", path)


@PROPERTY
@given(data=datasets(channels=1, max_n=3))
def test_idx_truncation(data):
    with tempfile.TemporaryDirectory() as d:
        images, labels = os.path.join(d, "images.idx"), os.path.join(d, "labels.idx")
        save_idx(images, labels, data)
        for cut in (images, labels):
            for _ in truncations(cut):
                with pytest.raises(FormatError):
                    load_idx(images, labels)
                cli_rejects(cut, "train", *SPEC_FLAGS, "--data-idx", f"{images},{labels}")
        npt.assert_array_equal(load_idx(images, labels).labels, data.labels)


@PROPERTY
@given(data=datasets(max_n=3))
def test_raw_blob_truncation(data):
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "data.raw")
        save_raw_blob(path, data)
        for _ in truncations(path):
            with pytest.raises(FormatError):
                load_raw_blob(path)
            cli_rejects(path, "train", *SPEC_FLAGS, "--data-raw", path)
        npt.assert_array_equal(load_raw_blob(path).images, data.images.astype(np.float32))


CKPT_SPEC = ModelSpec(base_width=4, depths=(1, 1, 1, 1), patch_size=1, input=(16, 16, 3),
                      num_classes=3)


def _saved_checkpoint(d):
    """A CKPT_SPEC checkpoint in directory d: its path, its bytes and where its blob starts."""
    path = os.path.join(d, "m.ckpt")
    save_checkpoint(path, build_model(CKPT_SPEC))
    with open(path, "rb") as f:
        raw = f.read()
    return path, raw, raw.index(b"\n", raw.index(b"\nDATA ") + 1) + 1


def test_checkpoint_header_truncation():
    # Every example of the next test writes this same header, so each of its
    # cuts is read once, here; a rejected cut builds the stored spec's model.
    with tempfile.TemporaryDirectory() as d:
        path, _, blob_start = _saved_checkpoint(d)
        for offset in truncations(path):
            if offset < blob_start:
                with pytest.raises(FormatError):
                    load_checkpoint(path)


@PROPERTY
@given(data=st.data())
def test_checkpoint_truncation(data):
    with tempfile.TemporaryDirectory() as d:
        path, raw, blob_start = _saved_checkpoint(d)
        blob_cuts = data.draw(st.sets(st.integers(blob_start, len(raw) - 1), max_size=200))
        cli_cuts = {0, blob_start - 1, blob_start} | set(
            data.draw(st.lists(st.integers(0, len(raw) - 1), max_size=3))
        )
        for offset in truncations(path):
            if offset not in blob_cuts | cli_cuts:
                continue
            with pytest.raises(FormatError):
                load_checkpoint(path)
            if offset in cli_cuts:
                cli_rejects(path, "eval", "--checkpoint", path, "--data-synth", "0,2,16,16,3,3")
        assert load_checkpoint(path).spec == CKPT_SPEC
