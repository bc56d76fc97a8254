import io
import struct
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import numpy.testing as npt
import pytest

from caterpillar.cli import main
from caterpillar.data import (
    LabeledImages,
    load_cifar10_binary,
    load_idx,
    load_raw_blob,
    synth_blobs,
)
from caterpillar.errors import FormatError
from caterpillar.tensor import Rng
from writers import RAW_MAGIC, save_cifar10_binary, save_idx, save_raw_blob


def handcrafted_cifar_record() -> bytes:
    # label 6; first red pixel 255, everything else a ramp pattern
    pixels = bytearray(3072)
    pixels[0] = 255
    for i in range(1, 3072):
        pixels[i] = i % 251
    return bytes([6]) + bytes(pixels)


class TestCifar:
    def test_handcrafted_record(self, tmp_path):
        path = tmp_path / "batch.bin"
        path.write_bytes(handcrafted_cifar_record())
        data = load_cifar10_binary(str(path))
        assert data.images.shape == (1, 32, 32, 3)
        assert data.labels[0] == 6
        assert data.images[0, 0, 0, 0] == 1.0  # 255/255, red plane first
        # plane order: green value for pixel (0,0) sits at byte 1+1024
        assert data.images[0, 0, 0, 1] == ((1024 % 251) / 255.0)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.bin"
        path.write_bytes(b"")
        with pytest.raises(FormatError):
            load_cifar10_binary(str(path))

    def test_truncated_record_offset(self, tmp_path):
        path = tmp_path / "trunc.bin"
        path.write_bytes(handcrafted_cifar_record()[:-10])
        with pytest.raises(FormatError, match="offset"):
            load_cifar10_binary(str(path))

    def test_label_out_of_range(self, tmp_path):
        path = tmp_path / "badlabel.bin"
        record = bytearray(handcrafted_cifar_record())
        record[0] = 10
        path.write_bytes(bytes(record))
        with pytest.raises(FormatError, match="label"):
            load_cifar10_binary(str(path))

    def test_roundtrip_bit_exact(self, tmp_path):
        raw = b"".join(
            bytes([k % 10]) + bytes((k * 7 + i) % 256 for i in range(3072)) for k in range(5)
        )
        src = tmp_path / "src.bin"
        src.write_bytes(raw)
        data = load_cifar10_binary(str(src))
        dst = tmp_path / "dst.bin"
        save_cifar10_binary(str(dst), data)
        assert dst.read_bytes() == raw

    def test_multiple_files_concatenate(self, tmp_path):
        a = tmp_path / "a.bin"
        b = tmp_path / "b.bin"
        a.write_bytes(handcrafted_cifar_record())
        b.write_bytes(handcrafted_cifar_record() * 2)
        data = load_cifar10_binary([str(a), str(b)])
        assert data.images.shape[0] == 3


def minimal_idx_pair(tmp_path, n=1, h=2, w=2, labels=(3,)):
    import struct

    img = tmp_path / "img.idx"
    lab = tmp_path / "lab.idx"
    body = bytes(range(n * h * w))
    img.write_bytes(struct.pack(">IIII", 0x803, n, h, w) + body)
    lab.write_bytes(struct.pack(">II", 0x801, len(labels)) + bytes(labels))
    return str(img), str(lab)


class TestIdx:
    def test_minimal_pair(self, tmp_path):
        img, lab = minimal_idx_pair(tmp_path)
        data = load_idx(img, lab)
        assert data.images.shape == (1, 2, 2, 1)
        assert data.labels[0] == 3
        npt.assert_allclose(
            data.images[0, :, :, 0], np.array([[0, 1], [2, 3]]) / 255.0
        )

    def test_count_mismatch(self, tmp_path):
        img, lab = minimal_idx_pair(tmp_path, n=1, labels=(1, 2, 3))
        with pytest.raises(FormatError, match="count"):
            load_idx(img, lab)

    def test_magic_mismatch(self, tmp_path):
        import struct

        img = tmp_path / "bad.idx"
        img.write_bytes(struct.pack(">IIII", 0x802, 1, 2, 2) + bytes(4))
        _, lab = minimal_idx_pair(tmp_path)
        with pytest.raises(FormatError, match="magic"):
            load_idx(str(img), lab)

    def test_roundtrip_bit_exact(self, tmp_path):
        img, lab = minimal_idx_pair(tmp_path, n=2, h=3, w=4, labels=(1, 9))
        import struct

        body = bytes((i * 13) % 256 for i in range(2 * 3 * 4))
        (tmp_path / "img.idx").write_bytes(struct.pack(">IIII", 0x803, 2, 3, 4) + body)
        data = load_idx(img, lab)
        img2, lab2 = str(tmp_path / "img2.idx"), str(tmp_path / "lab2.idx")
        save_idx(img2, lab2, data)
        assert open(img2, "rb").read() == open(img, "rb").read()
        assert open(lab2, "rb").read() == open(lab, "rb").read()


class TestRawBlob:
    def test_roundtrip(self, tmp_path):
        data = synth_blobs(3, 6, 4, 4, 2, 3)
        as32 = LabeledImages(
            data.images.astype(np.float32).astype(np.float64), data.labels, 3
        )
        path = str(tmp_path / "set.raw")
        save_raw_blob(path, as32)
        loaded = load_raw_blob(path)
        npt.assert_array_equal(loaded.images, as32.images)
        npt.assert_array_equal(loaded.labels, as32.labels)
        assert loaded.class_count == 3
        # bytes round-trip too
        path2 = str(tmp_path / "set2.raw")
        save_raw_blob(path2, loaded)
        assert open(path, "rb").read() == open(path2, "rb").read()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.raw"
        path.write_bytes(b"RAW2" + bytes(40))
        with pytest.raises(FormatError, match="magic"):
            load_raw_blob(str(path))

    def test_truncation(self, tmp_path):
        data = synth_blobs(4, 2, 2, 2, 1, 2)
        path = str(tmp_path / "t.raw")
        save_raw_blob(path, data)
        blob = open(path, "rb").read()
        (tmp_path / "t2.raw").write_bytes(blob[:-3])
        with pytest.raises(FormatError, match="bytes"):
            load_raw_blob(str(tmp_path / "t2.raw"))


# Well-framed files whose contents the dataset rejects.  Each builder returns
# the dataset flag, its argument, and the paths the error must name, the one
# it starts with first.


def idx_count_mismatch(tmp_path):
    img, lab = minimal_idx_pair(tmp_path, n=4, labels=(0, 1, 2))
    return "--data-idx", f"{img},{lab}", [lab, img]


def idx_zero_height(tmp_path):
    img, lab = minimal_idx_pair(tmp_path, n=4, h=0, w=8, labels=(0, 1, 2, 3))
    return "--data-idx", f"{img},{lab}", [img]


def raw_label_at_class_count(tmp_path):
    """Labels 0, 1, 0, 1 with the stored class count patched from 2 to 1."""
    path = tmp_path / "labels.raw"
    save_raw_blob(str(path), synth_blobs(0, 4, 2, 2, 1, 2))
    raw = bytearray(path.read_bytes())
    off = 20 + 4 * (4 * 2 * 2 * 1)  # past the magic, the dims and the f32 pixels
    raw[off : off + 4] = struct.pack("<I", 1)
    path.write_bytes(bytes(raw))
    return "--data-raw", str(path), [str(path)]


def raw_zero_height(tmp_path):
    path = tmp_path / "no_rows.raw"
    labels = struct.pack("<4I", 0, 1, 0, 1)
    path.write_bytes(RAW_MAGIC + struct.pack("<IIII", 4, 0, 8, 3) + struct.pack("<I", 2) + labels)
    return "--data-raw", str(path), [str(path)]


BAD_DATASETS = [idx_count_mismatch, idx_zero_height, raw_label_at_class_count, raw_zero_height]
READERS = {"--data-idx": lambda text: load_idx(*text.split(",")), "--data-raw": load_raw_blob}


class TestErrorsNameTheFile:
    @pytest.mark.parametrize("make", BAD_DATASETS)
    def test_reader(self, tmp_path, make):
        flag, text, paths = make(tmp_path)
        with pytest.raises(FormatError) as info:
            READERS[flag](text)
        message = str(info.value)
        assert message.startswith(paths[0] + ": ")
        assert all(p in message for p in paths)

    @pytest.mark.parametrize("make", BAD_DATASETS)
    def test_cli(self, tmp_path, make):
        flag, text, paths = make(tmp_path)
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main(["train", "--base-width", "8", "--depths", "1,1,1,1", "--patch-size",
                         "1", "--input", "16,16,3", "--classes", "4", "--steps", "1",
                         flag, text])
        assert code == 2
        assert err.getvalue().startswith(f"error: {paths[0]}: ")
        assert err.getvalue().count("\n") == 1

class TestSynth:
    def test_deterministic(self):
        a = synth_blobs(5, 20, 6, 6, 3, 4)
        b = synth_blobs(5, 20, 6, 6, 3, 4)
        npt.assert_array_equal(a.images, b.images)
        npt.assert_array_equal(a.labels, b.labels)

    def test_nearest_template_separability(self):
        data = synth_blobs(7, 64, 16, 16, 3, 8)
        templates = Rng(7).uniform(8 * 16 * 16 * 3).reshape(8, 16, 16, 3)
        hits = 0
        for img, label in zip(data.images, data.labels):
            dists = ((templates - img) ** 2).sum(axis=(1, 2, 3))
            hits += int(np.argmin(dists) == label)
        assert hits == 64

    def test_values_clipped(self):
        data = synth_blobs(8, 30, 5, 5, 1, 3)
        assert data.images.min() >= 0.0 and data.images.max() <= 1.0

    def test_matches_expression(self):
        """In-place noise and clip give the bits of the whole-array expression."""
        n, h, w, cin, k = 12, 5, 3, 2, 4
        rng = Rng(9)
        templates = rng.uniform(k * h * w * cin).reshape(k, h, w, cin)
        images = templates[np.arange(n) % k]
        images = images + 0.1 * rng.normal(n * h * w * cin).reshape(n, h, w, cin)
        expected = np.clip(images, 0.0, 1.0)
        got = synth_blobs(9, n, h, w, cin, k).images
        npt.assert_array_equal(got.view(np.uint64), expected.view(np.uint64))

    def test_class_count_guard(self):
        with pytest.raises(FormatError):
            synth_blobs(0, 3, 2, 2, 1, 5)


class TestNormalization:
    def test_opt_in_per_channel(self):
        data = synth_blobs(10, 8, 4, 4, 3, 2)
        mean = (0.25, 0.5, 0.75)
        std = (0.5, 0.25, 1.0)
        normed = data.normalized(mean, std)
        npt.assert_allclose(normed.images, (data.images - mean) / std, atol=0)
        # raw loader output stays untouched in [0, 1]
        assert data.images.min() >= 0.0 and data.images.max() <= 1.0
