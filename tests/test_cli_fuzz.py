"""Hypothesis fuzz of the command line over every subcommand.

Each argv is drawn from values around each flag's range edges, malformed
lists, non-finite floats and path arguments that are missing, a directory,
an empty or truncated file, or a regular file where a directory is
expected.  Every run must end in exit 0 or 2, with one `error:` line
exactly when it exits 2 and never a traceback; a non-finite float exits 2.
All paths lie under one temporary directory.
"""

import io
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from caterpillar.cli import main
from caterpillar.data import synth_blobs
from caterpillar.models import ModelSpec, build_model, save_checkpoint
from writers import save_idx, save_raw_blob

def fuzz(examples):
    return settings(max_examples=examples, derandomize=True, deadline=None, database=None)

NON_FINITE = ("nan", "inf", "-inf")
FLOATS = NON_FINITE + ("0", "-1", "-1e-3", "1e-3", "0.5")
SYNTH = ("0,16,16,16,3,4", "0,16,16,16,3", "0,,16,16,3,4", "0,16,16,16,3,x", "0,0,16,16,3,4",
         "0,16,16,16,3,0", "0,16,-1,16,3,4", "0,4,16,16,3,8", "0,16,8,8,3,4", "")
MODEL = {
    "--base-width": ("8", "4", "1", "0", "-8"),
    "--depths": ("1,1,1,1", "1,1,1", "0,1,1,1", "1,-1,1,1", "1,1,x,1", ""),
    "--patch-size": ("1", "2", "0", "-1"),
    "--classes": ("4", "1", "0", "-1"),
    "--ffn-ratio": ("2", "1", "0", "-1"),
    "--local-mixer": ("spc", "dwconv", "identity", "conv3x3", "bogus"),
    "--combine": ("LG", "weighted_sum", "concat_reduce", "bogus"),
    "--spc-config": ("steps=1", "steps=x", "steps=-1", "directions=8", "padding=bogus", "",
                     "directions=up+down+left"),
    "--channel-schedule": ("8,16,32,64", "8,16,32", "0,8,8,8"),
    "--family": ("caterpillar", "resnet18", "bogus"),
    "--n-c": ("8", "4", "0", "-1"),
}
# The input size is drawn as --input or as --resolution, never both: with both
# a run stops at their conflict, and neither value reaches the build.
INPUT_SIZE = {
    "--input": ("16,16,3", "8,8,3", "16,16", "0,16,3", "16,16,3,1"),
    "--resolution": ("16", "8", "1", "0", "-1"),
}
BASE_MODEL = ("--base-width", "8", "--depths", "1,1,1,1", "--patch-size", "1", "--classes", "4")
# Inputs read by the command; outputs written by it; --out-dir targets.
INPUTS = ("ckpt", "truncated", "empty", "dir", "missing", "under_file")
OUTPUTS = ("fresh", "existing", "dir", "under_file", "missing_parent")
OUT_DIRS = ("fresh_dir", "existing", "dir", "under_file")


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    base = tmp_path_factory.mktemp("fuzz")
    spec = ModelSpec(variant="custom", base_width=8, depths=(1, 1, 1, 1), patch_size=1,
                     input=(16, 16, 3), num_classes=4)
    save_checkpoint(str(base / "m.ckpt"), build_model(spec))
    raw = (base / "m.ckpt").read_bytes()
    (base / "truncated").write_bytes(raw[: len(raw) // 2])
    (base / "empty").write_bytes(b"")
    (base / "a_dir").mkdir()
    (base / "existing").write_bytes(b"")
    save_raw_blob(str(base / "blob.raw"), synth_blobs(0, 8, 16, 16, 3, 4))
    (base / "blob_truncated.raw").write_bytes((base / "blob.raw").read_bytes()[:100])
    save_idx(str(base / "img.idx"), str(base / "lbl.idx"), synth_blobs(0, 8, 16, 16, 1, 4))
    return {
        "ckpt": base / "m.ckpt",
        "truncated": base / "truncated",
        "empty": base / "empty",
        "dir": base / "a_dir",
        "missing": base / "missing",
        "under_file": base / "existing" / "below",
        "existing": base / "existing",
        "fresh": base / "out.bin",
        "fresh_dir": base / "maps",
        "missing_parent": base / "no" / "such" / "out.bin",
        "raw": base / "blob.raw",
        "raw_truncated": base / "blob_truncated.raw",
        "idx": f"{base / 'img.idx'},{base / 'lbl.idx'}",
    }


def _flags(table, most=2):
    """Up to `most` flags of table, each set to one of its values."""
    names = st.lists(st.sampled_from(sorted(table)), max_size=most, unique=True)
    return names.flatmap(lambda picked: st.fixed_dictionaries(
        {flag: st.sampled_from(table[flag]) for flag in picked}
    ))


def _argv(*parts):
    """Sequences as they are; a dict's flags as --flag=value, so that -1e-3 is a value."""
    argv = []
    for part in parts:
        argv += [f"{k}={v}" for k, v in part.items()] if isinstance(part, dict) else list(part)
    return argv


def _mostly(valid, strategy):
    """The valid value about half the time, else a draw from strategy."""
    return st.just(valid) | strategy


_SIZE = _mostly({"--input": "16,16,3"}, st.sampled_from(
    [{flag: v} for flag, values in INPUT_SIZE.items() for v in values]
))

_DATA = _mostly({"--data-synth": "0,16,16,16,3,4"}, st.sampled_from(
    [{"--data-synth": s} for s in SYNTH]
    + [{"--data-raw": k} for k in ("{raw}", "{raw_truncated}", "{empty}", "{dir}", "{missing}")]
    + [{"--data-idx": k} for k in ("{idx}", "{empty},{empty}", "{dir},{missing}", "{raw}")]
    + [{"--data-cifar": k} for k in ("{empty}", "{truncated}", "{dir}", "{missing}")]
    + [{}]
))


def run(paths, argv):
    argv = [a.format(**paths) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    text = err.getvalue()
    assert code in (0, 2), (argv, code, text)
    assert sum("error:" in line for line in text.splitlines()) == (code == 2), (argv, text)
    assert "Traceback" not in out.getvalue() + text, argv
    if any(a.endswith(tuple("=" + v for v in NON_FINITE)) for a in argv):
        assert code == 2, argv


@fuzz(150)
@given(size=_SIZE, model=_flags(MODEL), csv=st.none() | st.sampled_from(OUTPUTS))
def test_paramcount(paths, size, model, csv):
    run(paths, _argv(["paramcount"], BASE_MODEL, size, model, ["--csv", "{%s}" % csv] if csv else []))


@fuzz(100)
@given(
    flags=_flags({"--target": ("linear", "gelu", "avgpool", "bogus", ""),
                  "--trials": ("1", "2", "0", "-1", "x"), "--seed": ("0", "1", "-1")}),
    spc=st.none() | st.sampled_from(MODEL["--spc-config"]),
)
def test_gradcheck(paths, flags, spc):
    # The default target "all" is the whole suite: every argv names a small one.
    if spc is not None:
        flags = {**flags, "--target": "spc", "--config": spc}
    run(paths, _argv(["gradcheck", "--target", "linear"], flags))


@fuzz(150)
@given(
    flags=_flags({
        "--op": ("spc", "conv3x3", "dwconv3x3", "bogus"),
        "--channels": ("4", "1", "0", "-4"),
        "--hw": ("4", "2", "1", "0", "-2"),
        "--batch": ("2", "1", "0", "-1"),
        "--reps": ("1", "0", "-1"),
        "--warmup": ("0", "1", "-1"),
        "--direction": ("fwd", "fwd+bwd", "both"),
        "--dtype": ("f32", "f64", "f16"),
        "--seed": ("0", "-1"),
    }),
    out=st.none() | st.sampled_from(OUTPUTS),
)
def test_bench(paths, flags, out):
    base = ["bench", "--op", "spc", "--channels", "4", "--hw", "4", "--batch", "2", "--reps", "1"]
    run(paths, _argv(base, flags, ["--out", "{%s}" % out] if out else []))


@fuzz(250)
@given(
    size=_SIZE,
    model=_flags(MODEL),
    data=_DATA,
    train=_flags({
        "--steps": ("1", "2", "0", "-1"),
        "--batch-size": ("8", "1", "0", "-1"),
        "--warmup-steps": ("0", "1", "-1", "5"),
        "--lr": FLOATS,
        "--lr-min": FLOATS,
        "--warmup-lr": FLOATS,
        "--weight-decay": FLOATS,
        "--label-smoothing": FLOATS,
        "--seed": ("0", "1", "-1"),
        "--dtype": ("f32", "f64"),
    }),
    outputs=_flags({"--checkpoint": OUTPUTS, "--history": OUTPUTS}),
)
def test_train(paths, size, model, data, train, outputs):
    outputs = {k: "{%s}" % v for k, v in outputs.items()}
    base = ["--steps", "1", "--batch-size", "8"]
    run(paths, _argv(["train"], BASE_MODEL, size, model, data, base, train, outputs))


@fuzz(150)
@given(ckpt=_mostly("ckpt", st.sampled_from(INPUTS)), data=_DATA)
def test_eval(paths, ckpt, data):
    run(paths, _argv(["eval", "--checkpoint", "{%s}" % ckpt], data))


@fuzz(150)
@given(
    ckpt=_mostly("ckpt", st.sampled_from(INPUTS)),
    data=_DATA,
    flags=_flags({
        "--image-index": ("0", "7", "8", "-1", "x"),
        "--stage": ("all", "1", "4", "0", "5", "x"),
        "--reduce": ("mean", "channel:0", "channel:-1", "channel:99", "channel:", "bogus"),
    }),
    out_dir=st.sampled_from(OUT_DIRS),
)
def test_dump_features(paths, ckpt, data, flags, out_dir):
    argv = _argv(["dump-features", "--checkpoint", "{%s}" % ckpt], data, flags,
                 ["--out-dir", "{%s}" % out_dir])
    run(paths, argv)


def test_every_subcommand_is_fuzzed():
    from caterpillar.cli import build_parser

    sub = next(a for a in build_parser()._actions if a.dest == "command")
    fuzzed = {"paramcount", "gradcheck", "bench", "train", "eval", "dump-features"}
    assert set(sub.choices) == fuzzed
