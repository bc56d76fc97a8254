import dataclasses
import os
import re
import resource
import subprocess
import sys

import numpy as np
import pytest

from caterpillar.cli import (
    BENCH_HEADER,
    HISTORY_HEADER,
    HISTORY_SCHEMA,
    _gradcheck_cases,
    main,
    run_gradcheck,
    write_pgm,
)
from caterpillar.blocks import BlockConfig
from caterpillar.data import synth_blobs
from caterpillar.models import ModelSpec, ResNetModel, ResnetSpec, build_model, save_checkpoint
from caterpillar.train import TrainConfig


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_total_params(out: str) -> int:
    return int(re.search(r"total params: (\d+)", out).group(1))


class TestParamcount:
    def test_preset_t_224(self, capsys):
        code, out, _ = run_cli(capsys, "paramcount", "--preset", "T", "--resolution", "224")
        assert code == 0
        total = parse_total_params(out)
        assert abs(total - 29e6) <= 0.10 * 29e6
        assert "ratio 4.50" in out

    def test_preset_mi_224(self, capsys):
        code, out, _ = run_cli(capsys, "paramcount", "--preset", "Mi", "--resolution", "224")
        assert code == 0
        total = parse_total_params(out)
        assert abs(total - 6e6) <= 0.10 * 6e6

    def test_compare_local_delta(self, capsys):
        code, out, _ = run_cli(
            capsys, "paramcount", "--preset", "T", "--resolution", "224",
            "--compare-local", "dwconv",
        )
        assert code == 0
        delta = int(re.search(r"delta vs local_mixer=dwconv: (\d+)", out).group(1))
        assert 4.5e6 <= delta <= 5.3e6

    def test_invalid_spec_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.spec"
        bad.write_text("[model]\nfamily=caterpillar\nvariant=custom\nbase_width=6\n"
                       "depths=1,1,1,1\npatch_size=1\ninput=16,16,3\n")
        code, _, err = run_cli(capsys, "paramcount", "--spec-file", str(bad))
        assert code == 2
        assert "stage" in err

    def test_missing_model_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "paramcount")
        assert code == 2

    def test_csv_table(self, capsys, tmp_path):
        out_csv = tmp_path / "t.csv"
        code, _, _ = run_cli(
            capsys, "paramcount", "--base-width", "8", "--depths", "1,1,1,1",
            "--patch-size", "1", "--input", "16,16,3", "--classes", "4",
            "--ffn-ratio", "2", "--csv", str(out_csv),
        )
        assert code == 0
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "# paramcount-v1"
        assert lines[1] == "name,shape,params,macs"


class TestGradcheck:
    def test_target_spc_reflect(self, capsys):
        code, out, _ = run_cli(
            capsys, "gradcheck", "--target", "spc", "--config", "padding=reflect"
        )
        assert code == 0
        assert "pass" in out

    def test_negative_control_exits_1(self, capsys, monkeypatch):
        import caterpillar.cli as cli_mod
        from caterpillar.layers import Linear

        class BrokenLinear(Linear):
            def backward(self, dy):
                return 2.0 * super().backward(dy)  # deliberately corrupted

        def broken_cases(spc_override):
            return [("broken", "", lambda r: BrokenLinear(4, 4, rng=r), (1, 2, 2, 4), 1e-8)]

        monkeypatch.setattr(cli_mod, "_gradcheck_cases", broken_cases)
        code, out, err = run_cli(capsys, "gradcheck", "--target", "broken")
        assert code == 1
        assert "FAIL" in out

    def test_run_gradcheck_rows(self):
        ok, rows = run_gradcheck("linear")
        assert ok and len(rows) == 1 and rows[0][4]

    def test_custom_direction_list(self, capsys):
        # N = 3 reductions need a width divisible by 3: the smallest >= 8 is 9
        config = "directions=up+down+left"
        code, out, err = run_cli(capsys, "gradcheck", "--target", "spc", "--config", config)
        assert code == 0, err
        assert re.search(r"^pass  spc +directions=up\+down\+left;steps=1;", out, re.M)
        assert "1/1 checks passed" in out
        assert [case[3] for case in _gradcheck_cases(config) if case[0] == "spc"] == [(1, 5, 5, 9)]

    def test_spc_widths_by_direction_count(self):
        # a reducing check runs at the smallest multiple of N that is >= 8, any other at 8
        widths = {}
        for target, text, _, shape, _ in _gradcheck_cases(None):
            if target == "spc":
                key = (text.split(";")[0], "mixing=reduce_concat" in text)
                widths.setdefault(key, set()).add(shape[3])
        assert widths == {
            **{(f"directions={n}", True): {c} for n, c in ((4, 8), (5, 10), (8, 8), (9, 9))},
            **{(f"directions={n}", False): {8} for n in (4, 5, 8, 9)},
        }


class TestBench:
    def test_one_row_per_op_single_direction(self, capsys, tmp_path):
        out_csv = tmp_path / "bench.csv"
        code, out, _ = run_cli(
            capsys, "bench", "--op", "spc", "--channels", "8", "--hw", "6",
            "--batch", "2", "--reps", "1", "--warmup", "0",
            "--direction", "fwd", "--out", str(out_csv),
        )
        assert code == 0
        lines = [l for l in out_csv.read_text().splitlines() if l and not l.startswith("#")]
        assert lines[0] == BENCH_HEADER
        assert len(lines) == 2  # header + exactly one timed row
        assert lines[1].startswith("spc,")

    def test_environment_lines(self, capsys, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.setenv("OMP_NUM_THREADS", "3")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        code, out, _ = run_cli(
            capsys, "bench", "--op", "spc", "--channels", "8", "--hw", "6",
            "--batch", "2", "--reps", "1", "--warmup", "0", "--direction", "fwd",
        )
        assert code == 0
        comments = [l for l in out.splitlines() if l.startswith("# ")]
        for line in ("# OPENBLAS_NUM_THREADS=1", "# OMP_NUM_THREADS=3", "# MKL_NUM_THREADS=unset",
                     f"# cpu_count={os.cpu_count()}", f"# numpy={np.__version__}"):
            assert line in comments
        blas = [l for l in comments if l.startswith("# blas=")]
        assert len(blas) == 1
        assert BENCH_HEADER in out.splitlines()
        # after the rows: minor page faults per timed rep of each row, then the peak RSS
        lines = out.splitlines()
        row = next(i for i, l in enumerate(lines) if l.startswith("spc,"))
        faults = [i for i, l in enumerate(lines) if l.startswith("# minor_faults_per_rep spc,fwd=")]
        rss = [i for i, l in enumerate(lines) if l.startswith("# peak_rss_mb=")]
        assert len(faults) == 1 and len(rss) == 1 and row < faults[0] < rss[0]
        assert float(lines[faults[0]].split("=")[1]) >= 0
        assert float(lines[rss[0]].split("=")[1]) > 0

    def test_all_ops_rows_and_macs(self, capsys):
        code, out, _ = run_cli(
            capsys, "bench", "--channels", "8", "--hw", "6", "--batch", "2",
            "--reps", "1", "--warmup", "0",
        )
        assert code == 0
        rows = [l for l in out.splitlines() if re.match(r"^(spc|conv3x3|dwconv3x3),", l)]
        assert len(rows) == 6  # 3 ops x fwd, fwd+bwd
        assert "conv3x3/spc = 4.50" in out
        # analytic MAC columns: spc 2*P*C^2, conv 9*P*C^2, dw 9*P*C
        p = 2 * 6 * 6
        macs = {r.split(",")[0]: int(r.split(",")[-1]) for r in rows}
        assert macs["spc"] == 2 * p * 8 * 8
        assert macs["conv3x3"] == 9 * p * 8 * 8
        assert macs["dwconv3x3"] == 9 * p * 8


@pytest.fixture
def micro_flags():
    return [
        "--base-width", "8", "--depths", "1,1,1,1", "--patch-size", "1",
        "--input", "16,16,3", "--classes", "4", "--ffn-ratio", "2",
        "--data-synth", "0,16,16,16,3,4",
    ]


class TestTrainEvalCli:
    def test_history_deterministic_and_checkpoint_eval(self, capsys, tmp_path, micro_flags):
        hist1 = tmp_path / "h1.csv"
        hist2 = tmp_path / "h2.csv"
        ckpt = tmp_path / "m.ckpt"
        args = ["train", *micro_flags, "--steps", "5", "--batch-size", "16",
                "--seed", "7", "--checkpoint", str(ckpt)]
        code, out, _ = run_cli(capsys, *args, "--history", str(hist1))
        assert code == 0
        final_eval = float(re.search(r"final_eval_acc=([\d.]+)", out).group(1))
        code, _, _ = run_cli(capsys, *args, "--history", str(hist2))
        assert code == 0
        assert hist1.read_bytes() == hist2.read_bytes()
        lines = hist1.read_text().splitlines()
        assert lines[0] == HISTORY_SCHEMA and lines[1] == HISTORY_HEADER
        assert len(lines) == 2 + 5
        # eval on the saved checkpoint reproduces the logged eval accuracy
        code, out, _ = run_cli(
            capsys, "eval", "--checkpoint", str(ckpt), "--data-synth", "0,16,16,16,3,4"
        )
        assert code == 0
        assert float(re.search(r"top1=([\d.]+)", out).group(1)) == final_eval

    def test_incompatible_shapes_exit_2(self, capsys, tmp_path, micro_flags):
        ckpt = tmp_path / "m.ckpt"
        run_cli(capsys, "train", *micro_flags, "--steps", "2", "--batch-size", "8",
                "--checkpoint", str(ckpt))
        code, _, err = run_cli(
            capsys, "eval", "--checkpoint", str(ckpt), "--data-synth", "0,8,8,8,3,4"
        )
        assert code == 2
        assert "incompatible" in err


class TestDumpFeatures:
    def test_pgm_header_and_locality(self, capsys, tmp_path, micro_flags):
        ckpt = tmp_path / "m.ckpt"
        run_cli(capsys, "train", *micro_flags, "--steps", "2", "--batch-size", "8",
                "--checkpoint", str(ckpt))
        out_dir = tmp_path / "maps"
        code, out, _ = run_cli(
            capsys, "dump-features", "--checkpoint", str(ckpt),
            "--data-synth", "0,16,16,16,3,4", "--stage", "1", "--reduce", "mean",
            "--out-dir", str(out_dir),
        )
        assert code == 0
        pgm = (out_dir / "stage1_mean.pgm").read_bytes()
        assert pgm.startswith(b"P5\n16 16\n255\n")
        assert len(pgm) == len(b"P5\n16 16\n255\n") + 16 * 16

    def test_channel_reduce_and_bad_stage(self, capsys, tmp_path, micro_flags):
        ckpt = tmp_path / "m.ckpt"
        run_cli(capsys, "train", *micro_flags, "--steps", "2", "--batch-size", "8",
                "--checkpoint", str(ckpt))
        out_dir = tmp_path / "maps"
        code, _, _ = run_cli(
            capsys, "dump-features", "--checkpoint", str(ckpt),
            "--data-synth", "0,16,16,16,3,4", "--stage", "2",
            "--reduce", "channel:0", "--out-dir", str(out_dir),
        )
        assert code == 0
        assert (out_dir / "stage2_channel0.pgm").exists()
        code, _, err = run_cli(
            capsys, "dump-features", "--checkpoint", str(ckpt),
            "--data-synth", "0,16,16,16,3,4", "--stage", "9", "--out-dir", str(out_dir),
        )
        assert code == 2

    def test_constant_map_constant_pgm(self, tmp_path):
        path = tmp_path / "c.pgm"
        lo, hi = write_pgm(str(path), np.full((3, 5), 2.0))
        body = path.read_bytes()[len(b"P5\n5 3\n255\n"):]
        assert set(body) == {0}
        assert lo == hi == 2.0


def _micro_checkpoint(path):
    spec = ModelSpec(
        variant="custom", base_width=8, depths=(1, 1, 1, 1), patch_size=1,
        input=(16, 16, 3), num_classes=4, block=BlockConfig(ffn_ratio=2),
    )
    save_checkpoint(str(path), build_model(spec))
    return path


def assert_one_error(code, out, err):
    assert code == 2
    assert [l for l in err.splitlines() if l.startswith("error:")] == [err.strip()]
    assert "Traceback" not in out + err


def _retype(path, pattern: bytes, repl: bytes):
    raw, n = re.subn(pattern, repl, path.read_bytes(), count=1)
    assert n == 1
    path.write_bytes(raw)


_SYNTH = "0,16,16,16,3,4"


class TestTypedErrors:
    @pytest.mark.parametrize(
        "body, needle",
        [
            ("base_width=abc\ndepths=1,1,1,1\n", "base_width"),
            ("base_width=8\ndepths=1,x,1,1\n", "depths"),
            ("base_width=8\n", "depths"),
        ],
    )
    def test_bad_spec_field(self, capsys, tmp_path, body, needle):
        spec = tmp_path / "bad.spec"
        spec.write_text("[model]\nfamily=caterpillar\nvariant=custom\n" + body)
        code, out, err = run_cli(capsys, "paramcount", "--spec-file", str(spec))
        assert_one_error(code, out, err)
        assert needle in err

    @pytest.mark.parametrize(
        "flags",
        [
            ("--preset", "Mi", "--spc-config", "steps=x"),
            ("--preset", "Mi", "--input", "32,x,3"),
            ("--base-width", "8", "--depths", "1,1,one,1"),
        ],
    )
    def test_bad_integer_flag(self, capsys, flags):
        code, out, err = run_cli(capsys, "paramcount", *flags)
        assert_one_error(code, out, err)

    def test_spc_config_integers_take_ascii_digits_alone(self, capsys):
        # int() takes each steps value as 1 and isdecimal() "٤" as 4, so each would build
        for config in ("steps=+1", "steps=\u0661", "steps=0_1", "directions=\u0664"):
            code, out, err = run_cli(capsys, "paramcount", *MICRO_FLAGS, "--spc-config", config)
            assert_one_error(code, out, err)
        code, out, err = run_cli(capsys, "paramcount", *MICRO_FLAGS, "--spc-config", "steps=-1")
        assert_one_error(code, out, err)
        assert "steps must be >= 0" in err

    def test_bad_data_synth(self, capsys, tmp_path):
        ckpt = _micro_checkpoint(tmp_path / "m.ckpt")
        for synth in ("0,16,16,x,3,4", "0,16,16,16,3"):
            code, out, err = run_cli(
                capsys, "eval", "--checkpoint", str(ckpt), "--data-synth", synth
            )
            assert_one_error(code, out, err)
            assert "--data-synth" in err

    @pytest.mark.parametrize(
        "synth, needle",
        [("0,4,16,16,3,0", "class"), ("0,4,16,16,3,-3", "class"), ("0,4,-1,-1,3,2", "dims")],
    )
    def test_data_synth_out_of_range(self, capsys, tmp_path, synth, needle):
        ckpt = _micro_checkpoint(tmp_path / "m.ckpt")
        code, out, err = run_cli(capsys, "eval", "--checkpoint", str(ckpt), "--data-synth", synth)
        assert_one_error(code, out, err)
        assert needle in err

    @pytest.mark.parametrize("paths", ["onlyone", "a,b,c"])
    def test_bad_data_idx(self, capsys, tmp_path, paths):
        ckpt = _micro_checkpoint(tmp_path / "m.ckpt")
        code, out, err = run_cli(capsys, "eval", "--checkpoint", str(ckpt), "--data-idx", paths)
        assert_one_error(code, out, err)
        assert "--data-idx" in err

    @pytest.mark.parametrize("trials", ["0", "-1"])
    def test_gradcheck_without_trials(self, capsys, trials):
        code, out, err = run_cli(capsys, "gradcheck", "--target", "spc", "--trials", trials)
        assert_one_error(code, out, err)
        assert "trials" in err and "passed" not in out

    @pytest.mark.parametrize(
        "flags, needle",
        [
            (("--reps", "0"), "--reps"),
            (("--reps", "-1"), "--reps"),
            (("--warmup", "-1"), "--warmup"),
            (("--hw", "-2"), "--hw"),
            (("--channels", "-4"), "--channels"),
        ],
    )
    def test_bench_out_of_range(self, capsys, flags, needle):
        code, out, err = run_cli(capsys, "bench", "--op", "spc", "--hw", "4", *flags)
        assert_one_error(code, out, err)
        assert needle in err and "images_per_s" not in out

    @pytest.mark.parametrize(
        "pattern, repl, needle",
        [
            (rb"\nDATA \d+\n", b"\nDATA zz\n", "DATA"),
            # "²" passes str.isdigit() but not int()
            (rb"\nDATA \d+\n", b"\nDATA \xc2\xb2\n", "DATA line"),
            # the second line alone would load; the first overlaps embed.w
            (rb"\nembed.b 8 24\n", b"\nembed.b 8 0\nembed.b 8 24\n",
             "'embed.b 8 0', the writer writes 'embed.b 8 24'"),
            # int() takes each of these manifest fields as 24 or 8
            (rb"\nembed.b 8 24\n", "\nembed.b 8 \u0662\u0664\n".encode(), "manifest"),
            (rb"\nembed.b 8 24\n", b"\nembed.b 8 +24\n", "manifest"),
            (rb"\nembed.b 8 24\n", b"\nembed.b 8 2_4\n", "manifest"),
            (rb"\nembed.b 8 24\n", b"\nembed.b +8 24\n", "manifest"),
            (rb"\nembed.w 1x1x3x8 0\n", b"\nembed.w 1x1x3x8\n", "manifest"),
            (rb"\nembed.w 1x1x3x8 0\n", b"\nembed.w 1xbx3x8 0\n", "manifest"),
            (rb"\nembed.w 1x1x3x8 0\n", b"\nembed.w 1x1x3x8 99999999\n", "embed.w"),
            (rb"\nembed.w 1x1x3x8 0\n", b"\nembed.w 1x1x8x3 0\n", "embed.w"),
            # the marker only ends the spec at the start of a line
            (rb"=reduce_concat_fuse\n\[tensors\]\n", b"=reduce_concat_fuse [tensors]\n",
             "[tensors]"),
            # int() takes each of these spec values as 1 or 8, isdecimal() "٤" as 4
            (rb"\nsteps=1\n", b"\nsteps=+1\n", "steps"),
            (rb"\nsteps=1\n", "\nsteps=\u0661\n".encode(), "steps"),
            (rb"\nbase_width=8\n", b"\nbase_width=0_8\n", "base_width"),
            (rb"\ndirections=4\n", "\ndirections=\u0664\n".encode(), "direction"),
        ],
    )
    def test_bad_checkpoint_header(self, capsys, tmp_path, pattern, repl, needle):
        ckpt = _micro_checkpoint(tmp_path / "m.ckpt")
        _retype(ckpt, pattern, repl)
        code, out, err = run_cli(
            capsys, "eval", "--checkpoint", str(ckpt), "--data-synth", "0,16,16,16,3,4"
        )
        assert_one_error(code, out, err)
        assert needle in err.replace(str(ckpt), "")


    # {ckpt} is a valid checkpoint; {dir} an existing directory, {file} an
    # existing file and {under_file} a path below that file.
    @pytest.mark.parametrize(
        "argv, bad",
        [
            (("eval", "--checkpoint", "{dir}", "--data-synth", _SYNTH), "dir"),
            (("eval", "--checkpoint", "{ckpt}", "--data-raw", "{dir}"), "dir"),
            (("eval", "--checkpoint", "{ckpt}", "--data-cifar", "{dir}"), "dir"),
            (("paramcount", "--spec-file", "{dir}"), "dir"),
            (("paramcount", "--base-width", "8", "--depths", "1,1,1,1", "--csv", "{dir}"), "dir"),
            (("train", "--checkpoint", "{dir}"), "dir"),
            (("train", "--history", "{dir}"), "dir"),
            (("train", "--checkpoint", "{under_file}"), "under_file"),
            (("dump-features", "--checkpoint", "{ckpt}", "--data-synth", _SYNTH,
              "--out-dir", "{file}"), "file"),
        ],
        ids=[
            "eval-checkpoint-dir",
            "eval-data-raw-dir",
            "eval-data-cifar-dir",
            "paramcount-spec-file-dir",
            "paramcount-csv-dir",
            "train-checkpoint-dir",
            "train-history-dir",
            "train-checkpoint-under-file",
            "dump-features-out-dir-file",
        ],
    )
    def test_os_error_names_path(self, capsys, tmp_path, argv, bad):
        paths = {
            "ckpt": _micro_checkpoint(tmp_path / "m.ckpt"),
            "dir": tmp_path / "a_dir",
            "file": tmp_path / "a_file",
            "under_file": tmp_path / "a_file" / "x.ckpt",
        }
        paths["dir"].mkdir()
        paths["file"].write_text("")
        argv = [a.format(**paths) for a in argv]
        if argv[0] == "train":
            argv += [*MICRO_FLAGS, "--data-synth", _SYNTH, "--steps", "1", "--batch-size", "8"]
        code, out, err = run_cli(capsys, *argv)
        assert_one_error(code, out, err)
        assert str(paths[bad]) in err

    @pytest.mark.parametrize(
        "flag, value, field",
        [
            ("--lr", "nan", "lr_peak"),
            ("--lr", "inf", "lr_peak"),
            ("--lr-min", "nan", "lr_min"),
            ("--warmup-lr", "nan", "warmup_lr"),
            ("--weight-decay", "inf", "weight_decay"),
        ],
        ids=["lr-nan", "lr-inf", "lr-min-nan", "warmup-lr-nan", "weight-decay-inf"],
    )
    def test_non_finite_train_rate(self, capsys, tmp_path, flag, value, field):
        ckpt = tmp_path / "m.ckpt"
        code, out, err = run_cli(
            capsys, "train", *MICRO_FLAGS, "--data-synth", _SYNTH, "--steps", "1",
            "--batch-size", "8", flag, value, "--checkpoint", str(ckpt),
        )
        assert_one_error(code, out, err)
        assert field in err and not ckpt.exists()

    @pytest.mark.parametrize("reduce", ["bogus", "channel:99", "channel:x"])
    def test_bad_reduce_leaves_no_out_dir(self, capsys, tmp_path, reduce):
        ckpt = _micro_checkpoint(tmp_path / "m.ckpt")
        out_dir = tmp_path / "maps"
        code, out, err = run_cli(
            capsys, "dump-features", "--checkpoint", str(ckpt), "--data-synth", _SYNTH,
            "--reduce", reduce, "--out-dir", str(out_dir),
        )
        assert_one_error(code, out, err)
        assert not out_dir.exists()


class TestCorruptInputs:
    def test_overlapping_manifest_entries(self, capsys, tmp_path):
        ckpt = _micro_checkpoint(tmp_path / "m.ckpt")
        _retype(ckpt, rb"\nembed.b 8 24\n", b"\nembed.b 8 0\n")
        code, out, err = run_cli(
            capsys, "eval", "--checkpoint", str(ckpt), "--data-synth", "0,16,16,16,3,4"
        )
        assert_one_error(code, out, err)
        err = err.replace(str(ckpt), "")
        assert "manifest line" in err and "'embed.b 8 0', the writer writes 'embed.b 8 24'" in err

    def test_negative_weight_decay(self, capsys):
        code, out, err = run_cli(
            capsys, "train", *MICRO_FLAGS, "--data-synth", "0,16,16,16,3,4",
            "--weight-decay", "-5",
        )
        assert_one_error(code, out, err)
        assert "weight_decay" in err


class TestCompat:
    def test_labels_beyond_model_classes(self, capsys, tmp_path, micro_flags):
        ckpt = _micro_checkpoint(tmp_path / "m.ckpt")
        code, out, err = run_cli(
            capsys, "eval", "--checkpoint", str(ckpt), "--data-synth", "0,18,16,16,3,9"
        )
        assert_one_error(code, out, err)
        assert "label 8" in err and "4 classes" in err
        flags = [f for f in micro_flags if f != "0,16,16,16,3,4"]
        code, out, err = run_cli(
            capsys, "train", *flags, "0,18,16,16,3,9", "--steps", "1", "--batch-size", "8"
        )
        assert_one_error(code, out, err)

    @pytest.mark.parametrize("index", ["16", "-1"])
    def test_image_index_out_of_range(self, capsys, tmp_path, index):
        ckpt = _micro_checkpoint(tmp_path / "m.ckpt")
        code, out, err = run_cli(
            capsys, "dump-features", "--checkpoint", str(ckpt),
            "--data-synth", "0,16,16,16,3,4", "--image-index", index,
            "--out-dir", str(tmp_path / "maps"),
        )
        assert_one_error(code, out, err)
        assert f"image index {index}" in err and "[0, 16)" in err


MICRO_FLAGS = ("--base-width", "8", "--depths", "1,1,1,1", "--patch-size", "1",
               "--input", "16,16,3", "--classes", "4")


class TestSpecChecks:
    @pytest.mark.parametrize(
        "argv, needle",
        [
            (("paramcount", "--preset", "Mi", "--input", "16,16"), "input"),
            (("paramcount", "--base-width", "-8", "--depths", "1,1,1,1"), "base_width"),
            (("paramcount", "--base-width", "0", "--depths", "1,1,1,1"), "base_width"),
            (("paramcount", *MICRO_FLAGS, "--channel-schedule", "8,16,32"), "channel_schedule"),
            (("paramcount", "--preset", "Mi", "--classes", "0"), "num_classes"),
            (("paramcount", "--family", "resnet18", "--n-c", "0"), "n_c"),
            (("paramcount", "--family", "resnet18", "--ffn-ratio", "4"), "--ffn-ratio"),
            (("paramcount", "--family", "resnet18", "--preset", "Mi"), "--preset"),
            (("train", *MICRO_FLAGS, "--data-synth", "0,16,16,16,3,4", "--batch-size", "0"),
             "batch_size"),
            (("train", *MICRO_FLAGS, "--data-synth", "0,16,16,16,3,4", "--warmup-steps", "-1"),
             "warmup_steps"),
            # Weight counts beyond what one array can hold, one of them with an
            # int64 product that wraps to 0; the later flag overrides MICRO_FLAGS.
            (("paramcount", *MICRO_FLAGS, "--classes", str(2**64)), "draw count"),
            (("paramcount", *MICRO_FLAGS, "--classes", str(2**62)), "draw count"),
            (("paramcount", *MICRO_FLAGS, "--base-width", str(2**64)), "draw count"),
            # int() takes each as 8, 8, 1, 16, 16, 4, 2 or 8; the spec's integer rule does not
            (("paramcount", *MICRO_FLAGS, "--base-width", "0_8"), "base_width"),
            (("paramcount", *MICRO_FLAGS, "--base-width", "\u0668"), "base_width"),
            (("paramcount", *MICRO_FLAGS, "--patch-size", "+1"), "patch_size"),
            (("paramcount", "--preset", "Mi", "--resolution", "1_6"), "--resolution"),
            (("paramcount", *MICRO_FLAGS, "--resolution", "1_6"), "--resolution"),
            (("paramcount", *MICRO_FLAGS, "--resolution", "32"), "--input and --resolution"),
            (("paramcount", *MICRO_FLAGS, "--classes", " 4"), "num_classes"),
            (("paramcount", *MICRO_FLAGS, "--ffn-ratio", "+2"), "ffn_ratio"),
            (("paramcount", "--family", "resnet18", "--n-c", "0_8"), "n_c"),
        ],
    )
    def test_bad_flag_value(self, capsys, argv, needle):
        code, out, err = run_cli(capsys, *argv)
        assert_one_error(code, out, err)
        assert needle in err

    def test_huge_depth_refused_before_any_draw(self):
        # Each block's draws are small, so only the closed-form total can
        # refuse this depth; a build would grow until memory runs out.  The
        # child runs under a 2 GiB address-space cap and a time limit.
        import caterpillar

        argv = ["paramcount", "--base-width", "8", "--depths", f"{2**64},1,1,1",
                "--patch-size", "1", "--input", "16,16,3", "--classes", "4"]
        src = os.path.dirname(os.path.dirname(os.path.abspath(caterpillar.__file__)))
        cap = 2 << 30
        proc = subprocess.run(
            [sys.executable, "-m", "caterpillar", *argv],
            env={**os.environ, "PYTHONPATH": src},
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
            capture_output=True, text=True, timeout=60,
        )
        assert_one_error(proc.returncode, proc.stdout, proc.stderr)
        assert int(re.search(r"needs (\d+) parameters", proc.stderr).group(1)) > 2**64

    @pytest.mark.parametrize(
        "body, needle",
        [
            ("[model]\nvariant=Mi\ninput=16,16\n", "input"),
            ("[model]\nvariant=Mi\n[block]\nlocal_mixer=dwconv\ndw_kernel=-1\n", "dw_kernel"),
            ("[model]\nvariant=Mi\n[block]\nffn_ration=4\n", "ffn_ration"),
            ("[mdoel]\nvariant=Mi\n", "[mdoel]"),
            ("[model]\nfamily=resnet18\nsmall_stem=maybe\n", "small_stem"),
            ("[model]\nfamily=resnet18\n[block]\nffn_ratio=2\n", "[block]"),
            ("[model]\nfamily=resnet18\nvariant=Mi\n", "variant"),
            ("[model]\nfamily=resnet34\n", "resnet34"),
        ],
    )
    def test_bad_spec_file(self, capsys, tmp_path, body, needle):
        spec = tmp_path / "bad.spec"
        spec.write_text(body)
        code, out, err = run_cli(capsys, "paramcount", "--spec-file", str(spec))
        assert_one_error(code, out, err)
        assert needle in err

    @pytest.mark.parametrize("byte", [b"\xff", b"\x80"])
    def test_non_utf8_spec_file(self, capsys, tmp_path, byte):
        spec = tmp_path / "bad.spec"
        spec.write_bytes(b"[model]\nvariant=Mi" + byte + b"\n")
        code, out, err = run_cli(capsys, "paramcount", "--spec-file", str(spec))
        assert_one_error(code, out, err)
        assert "UTF-8" in err

    @pytest.mark.parametrize("byte", [b"\xff", b"\x80"])
    def test_non_utf8_checkpoint_header(self, capsys, tmp_path, byte):
        ckpt = _micro_checkpoint(tmp_path / "m.ckpt")
        _retype(ckpt, rb"variant=custom", b"variant=custom" + byte)
        code, out, err = run_cli(
            capsys, "eval", "--checkpoint", str(ckpt), "--data-synth", "0,16,16,16,3,4"
        )
        assert_one_error(code, out, err)
        assert "UTF-8" in err.replace(str(ckpt), "")

    def test_model_too_large_to_allocate(self, capsys, monkeypatch):
        import caterpillar.cli as cli_mod

        def too_large(*args, **kwargs):
            raise MemoryError("Unable to allocate 36.0 TiB for an array")

        monkeypatch.setattr(cli_mod, "build_model", too_large)
        code, out, err = run_cli(capsys, "paramcount", "--family", "resnet18", "--n-c", "1048576",
                                 "--input", "32,32,3")
        assert_one_error(code, out, err)
        assert "36.0 TiB" in err

    def test_two_dataset_flags(self, capsys, tmp_path):
        ckpt = _micro_checkpoint(tmp_path / "m.ckpt")
        code, out, err = run_cli(capsys, "eval", "--checkpoint", str(ckpt),
                                 "--data-synth", _SYNTH, "--data-cifar", str(ckpt))
        assert_one_error(code, out, err)
        assert "--data-synth" in err and "--data-cifar" in err

    def test_compare_local_refused_before_output(self, capsys):
        code, out, err = run_cli(capsys, "paramcount", "--family", "resnet18", "--resolution",
                                 "32", "--classes", "10", "--compare-local", "dwconv")
        assert_one_error(code, out, err)
        assert out == ""
        assert "--compare-local" in err

    def test_unknown_gradcheck_target(self, capsys):
        code, out, err = run_cli(capsys, "gradcheck", "--target", "nosuch")
        assert_one_error(code, out, err)
        assert "nosuch" in err and "linear" in err and "spc" in err


def total_macs(out: str) -> int:
    return int(re.search(r"total MACs:\s+(\d+)", out).group(1))


class TestFlagsMatchSpecFiles:
    def test_resnet18_small_input_stem(self, capsys, tmp_path):
        spec = tmp_path / "r.spec"
        spec.write_text("[model]\nfamily=resnet18\ninput=32,32,3\nnum_classes=10\n")
        for argv in (
            ("--family", "resnet18", "--input", "32,32,3", "--classes", "10"),
            ("--family", "resnet18", "--resolution", "32", "--classes", "10"),
            ("--spec-file", str(spec)),
        ):
            code, out, _ = run_cli(capsys, "paramcount", *argv)
            assert code == 0
            assert total_macs(out) == 556_037_120

    def test_spec_file_takes_local_mixer_flag(self, capsys, tmp_path):
        spec = tmp_path / "r.spec"
        spec.write_text("[model]\nfamily=resnet18\ninput=32,32,3\nnum_classes=10\n")
        code, out, _ = run_cli(
            capsys, "paramcount", "--spec-file", str(spec), "--local-mixer", "spc"
        )
        assert code == 0
        code, flag_out, _ = run_cli(
            capsys, "paramcount", "--family", "resnet18", "--local-mixer", "spc",
            "--resolution", "32", "--classes", "10",
        )
        assert code == 0
        assert parse_total_params(out) == parse_total_params(flag_out)
        assert total_macs(out) == total_macs(flag_out) < 556_037_120


class TestExtentErrors:
    """A spec whose layers cannot run on its input exits 2 naming the layer, before any step."""

    def test_reflect_pyramid(self, capsys):
        flags = (*MICRO_FLAGS, "--spc-config", "padding=reflect")
        for argv in (("paramcount", *flags),
                     ("train", *flags, "--data-synth", "0,8,16,16,3,4", "--steps", "1", "--batch-size", "8")):
            code, _, err = run_cli(capsys, *argv)
            assert code == 2 and err.startswith("error: stage4.block1: spc shift: reflect"), argv
            assert len(err.strip().splitlines()) == 1

    def test_large_stem_resnet_at_32px(self, capsys, tmp_path):
        spec = tmp_path / "r18.spec"
        spec.write_text("[model]\nfamily=resnet18\nn_c=8\nlocal_mixer=spc\ninput=32,32,3\n"
                        "num_classes=4\nsmall_stem=no\n")
        ckpt = tmp_path / "r18.ckpt"
        # written unchecked: build_model refuses this spec
        save_checkpoint(str(ckpt), ResNetModel(ResnetSpec(8, "spc", 4, (32, 32, 3), small_stem=False)))
        data = ("--data-synth", "0,8,32,32,3,4")
        for argv in (("paramcount", "--spec-file", str(spec)),
                     ("train", "--spec-file", str(spec), *data, "--steps", "1", "--batch-size", "8"),
                     ("eval", "--checkpoint", str(ckpt), *data),
                     ("dump-features", "--checkpoint", str(ckpt), *data, "--out-dir", str(tmp_path))):
            code, _, err = run_cli(capsys, *argv)
            assert code == 2 and err.startswith("error: stage4.block1: spc shift"), argv
            assert len(err.strip().splitlines()) == 1


_MODEL_OPTIONS = {
    "--spec-file": (None, None, None),
    "--preset": (None, ["Mi", "Tx", "T", "S", "B"], None),
    "--family": (None, ["caterpillar", "resnet18"], None),
    "--n-c": (None, None, None),
    "--resolution": (None, None, None),
    "--input": (None, None, None),
    "--classes": (None, None, None),
    "--patch-size": (None, None, None),
    "--ffn-ratio": (None, None, None),
    "--base-width": (None, None, None),
    "--depths": (None, None, None),
    "--channel-schedule": (None, None, None),
    "--local-mixer": (None, None, None),
    "--combine": (None, ["LG", "GL", "two_residual", "sum", "weighted_sum", "concat_reduce"],
                  None),
    "--spc-config": (None, None, None),
}
_DATA_OPTIONS = {flag: (None, None, None)
                 for flag in ("--data-synth", "--data-cifar", "--data-idx", "--data-raw")}
# Subcommand -> option string -> (type name, choices, default).
PARSER_OPTIONS = {
    "paramcount": {
        **_MODEL_OPTIONS,
        "--compare-local": (None, ["dwconv", "identity", "spc"], None),
        "--csv": (None, None, None),
    },
    "gradcheck": {
        "--target": (None, None, "all"),
        "--config": (None, None, None),
        "--trials": ("int", None, 1),
        "--seed": ("int", None, 0),
    },
    "bench": {
        "--op": (None, ["all", "spc", "conv3x3", "dwconv3x3"], "all"),
        "--channels": ("int", None, 64),
        "--hw": ("int", None, 32),
        "--batch": ("int", None, 8),
        "--reps": ("int", None, 3),
        "--warmup": ("int", None, 1),
        "--direction": (None, ["fwd", "fwd+bwd", "both"], "both"),
        "--dtype": (None, ["f32", "f64"], "f32"),
        "--seed": ("int", None, 0),
        "--out": (None, None, None),
    },
    "train": {
        **_MODEL_OPTIONS,
        **_DATA_OPTIONS,
        "--steps": ("int", None, 100),
        "--batch-size": ("int", None, 64),
        "--lr": ("float", None, 1e-3),
        "--lr-min": ("float", None, 1e-5),
        "--warmup-steps": ("int", None, 0),
        "--warmup-lr": ("float", None, 1e-6),
        "--weight-decay": ("float", None, 0.05),
        "--label-smoothing": ("float", None, 0.1),
        "--seed": ("int", None, 0),
        "--dtype": (None, ["f32", "f64"], "f32"),
        "--history": (None, None, None),
        "--checkpoint": (None, None, None),
    },
    "eval": {"--checkpoint": (None, None, None), **_DATA_OPTIONS},
    "dump-features": {
        "--checkpoint": (None, None, None),
        **_DATA_OPTIONS,
        "--image-index": ("int", None, 0),
        "--stage": (None, None, "all"),
        "--reduce": (None, None, "mean"),
        "--out-dir": (None, None, "."),
    },
}


def test_every_train_config_field_has_a_flag():
    from caterpillar.cli import _TRAIN_FLAGS

    fields = sorted(f.name for f in dataclasses.fields(TrainConfig))
    assert fields == sorted(field for _, field in _TRAIN_FLAGS)


def test_parser_options_choices_and_defaults():
    from caterpillar.cli import build_parser

    sub = next(a for a in build_parser()._actions if a.dest == "command")
    seen = {}
    for command, parser in sub.choices.items():
        seen[command] = {
            a.option_strings[0]: (
                a.type.__name__ if a.type else None,
                None if a.choices is None else list(a.choices),
                a.default,
            )
            for a in parser._actions if a.option_strings != ["-h", "--help"]
        }
        assert all(len(a.option_strings) == 1 for a in parser._actions[1:]), command
    assert seen == PARSER_OPTIONS
