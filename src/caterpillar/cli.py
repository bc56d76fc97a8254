"""Command-line surface: accounting, gradient checks, benchmarks, training,
evaluation and feature-map dumps.

Exit codes: 0 success, 1 verification failure, 2 usage, config or OS error
(a path that cannot be read or written) or a model too large to allocate.
CSV schemas are versioned by their leading comment line; wall-clock fields
are the only nondeterministic outputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import resource
import sys
import time

import numpy as np

from .blocks import COMBINE_STRATEGIES, LOCAL_MIXERS, BlockConfig, MixerBlock
from .data import LabeledImages, load_cifar10_binary, load_idx, load_raw_blob, synth_blobs
from .errors import CaterpillarError, ConfigError, parse_int, parse_ints
from .layers import (
    FFN,
    GELU,
    AvgPool2d,
    BatchNorm2d,
    Conv2d,
    DWConv2d,
    LayerNorm,
    Linear,
    MaxPool2d,
    ReLU,
    finite_diff_check,
)
from .models import (
    RESNET_MIXERS,
    SPEC_KEYS,
    VARIANT_PRESETS,
    ModelSpec,
    ResnetSpec,
    build_model,
    caterpillar_param_formula,
    count_params,
    decode_spec,
    estimate_flops,
    load_checkpoint,
    local_mixer_param_count,
    parse_spc_config,
    save_checkpoint,
    set_spec_key,
    spc_config_text,
    split_pairs,
    split_spec,
)
from .smlp import Smlp
from .spc import DIRECTION_PRESETS, MIXING_WAYS, PADDING_MODES, Spc, SpcConfig
from .tensor import Rng
from .train import TrainConfig, evaluate, train_loop

HISTORY_SCHEMA = "# history-v1"
HISTORY_HEADER = "step,lr,loss,acc"
BENCH_SCHEMA = "# bench-v1"
BENCH_HEADER = "operator,config,input_shape,direction,wall_time_s,images_per_s,analytic_macs"


_DTYPES = {"f32": np.float32, "f64": np.float64}

# Model flags in the order they are applied, each with the spec key it sets
# and its argparse options; the family's key table names the section.
# --family comes first: it picks the table.
_MODEL_FLAGS = (
    ("--family", "family", dict(choices=SPEC_KEYS, help="default caterpillar")),
    ("--preset", "variant", dict(choices=VARIANT_PRESETS, help="pyramid preset")),
    ("--base-width", "base_width", dict(help="custom pyramid stage-1 width")),
    ("--depths", "depths", dict(help="custom pyramid depths d1,d2,d3,d4")),
    ("--n-c", "n_c", dict(help="resnet18 first-stage width")),
    ("--patch-size", "patch_size", dict(help="pyramid patch size")),
    ("--input", "input", dict(help="input as H,W,C")),
    ("--classes", "num_classes", dict(help="classifier outputs")),
    ("--channel-schedule", "channel_schedule", dict(help="explicit stage widths c1,c2,c3,c4")),
    ("--local-mixer", "local_mixer",
     dict(help=f"caterpillar: {'|'.join(LOCAL_MIXERS)};  resnet18: {'|'.join(RESNET_MIXERS)}")),
    ("--combine", "combine", dict(choices=COMBINE_STRATEGIES, help="token-mixing strategy")),
    ("--ffn-ratio", "ffn_ratio", dict(help="FFN expansion ratio")),
)

# Train flags, each with the TrainConfig field that gives its type and default.
_TRAIN_FLAGS = (
    ("--steps", "total_steps"),
    ("--batch-size", "batch_size"),
    ("--lr", "lr_peak"),
    ("--lr-min", "lr_min"),
    ("--warmup-steps", "warmup_steps"),
    ("--warmup-lr", "warmup_lr"),
    ("--weight-decay", "weight_decay"),
    ("--label-smoothing", "label_smoothing"),
    ("--seed", "seed"),
)


def _dest(flag: str) -> str:
    """The attribute argparse stores a flag's value under."""
    return flag[2:].replace("-", "_")


def _add_model_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--spec-file", help="model spec file (key=value sections)")
    for flag, _, options in _MODEL_FLAGS:
        p.add_argument(flag, **options)
    p.add_argument("--spc-config", help="e.g. 'directions=4;steps=1;padding=zero;mixing=...'")
    p.add_argument("--resolution", help="square input resolution")


def _read_spec_file(path: str) -> dict[str, dict[str, str]]:
    with open(path, "rb") as f:
        raw = f.read()
    try:
        return split_spec(raw.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ConfigError(f"spec file {path}: byte {exc.start} is not UTF-8") from None


def _spec_from_args(args) -> "ModelSpec | ResnetSpec":
    """Decode the spec file (or the family's base) with every model flag applied."""
    if args.resolution is not None and args.input is not None:
        raise CaterpillarError("one input size at a time: got --input and --resolution")
    if args.spec_file:
        sections = _read_spec_file(args.spec_file)
    elif all(getattr(args, flag) is None for flag in ("family", "preset", "base_width", "depths")):
        raise CaterpillarError("no model given: use --spec-file, --preset, or --base-width/--depths")
    else:
        sections = {}
    for flag, key, _ in _MODEL_FLAGS:
        value = getattr(args, _dest(flag))
        if value is not None:
            set_spec_key(sections, key, value, flag)
    if args.spc_config:
        sections.setdefault("spc", {}).update(split_pairs(args.spc_config))
    if args.resolution is not None:
        # keeps the channel count of the spec file's or the family's input
        r, channels = parse_int(args.resolution, "--resolution"), decode_spec(sections).input[2]
        set_spec_key(sections, "input", f"{r},{r},{channels}", "--resolution")
    return decode_spec(sections)


def _read_synth(text: str) -> LabeledImages:
    fields = parse_ints(text, "--data-synth")
    if len(fields) != 6:
        raise CaterpillarError(f"--data-synth: expected seed,N,H,W,C,K, got {text!r}")
    return synth_blobs(*fields)


def _read_idx(text: str) -> LabeledImages:
    paths = text.split(",")
    if len(paths) != 2:
        raise CaterpillarError(f"--data-idx: expected images_file,labels_file, got {text!r}")
    return load_idx(*paths)


# Dataset flag -> (help, reader of the flag's text).
_DATASETS = {
    "--data-synth": ("seed,N,H,W,C,K synthetic blobs", _read_synth),
    "--data-cifar": ("comma-separated CIFAR-10 binary batch files",
                     lambda text: load_cifar10_binary(text.split(","))),
    "--data-idx": ("images_file,labels_file in IDX format", _read_idx),
    "--data-raw": ("raw-blob dataset file", load_raw_blob),
}


def _add_data_args(p: argparse.ArgumentParser) -> None:
    for flag, (help_text, _) in _DATASETS.items():
        p.add_argument(flag, help=help_text)


def _data_from_args(args) -> LabeledImages:
    given = [flag for flag in _DATASETS if getattr(args, _dest(flag)) is not None]
    if not given:
        raise CaterpillarError(f"no dataset given: use {'/'.join(_DATASETS)}")
    if len(given) > 1:
        raise CaterpillarError(f"one dataset at a time: got {' and '.join(given)}")
    flag = given[0]
    return _DATASETS[flag][1](getattr(args, _dest(flag)))


def _check_compat(model, data: LabeledImages) -> None:
    h, w, c = model.spec.input
    if data.images.shape[1:] != (h, w, c):
        raise CaterpillarError(
            f"dataset {data.images.shape[1:]} incompatible with model input {(h, w, c)}"
        )
    k = model.spec.num_classes
    if data.labels.size and data.labels.max() >= k:
        raise CaterpillarError(
            f"dataset label {data.labels.max()} incompatible with the model's {k} classes"
        )


def cmd_paramcount(args) -> int:
    spec = _spec_from_args(args)
    if args.compare_local and not isinstance(spec, ModelSpec):
        raise CaterpillarError("--compare-local applies to the pyramid family only")
    model = build_model(spec)
    total, rows = count_params(model)
    h, w, c = spec.input
    macs, macs_rows = estimate_flops(model, (1, h, w, c))
    mac_by_name = dict(macs_rows)
    print(f"model: {spec.serialize().splitlines()[1]} input {h}x{w}x{c}")
    print(f"total params: {total}  ({total / 1e6:.2f}M)")
    print(f"total MACs:   {macs}  ({macs / 1e9:.3f}G at batch 1; 1 MAC = 1 weight application)")
    if isinstance(spec, ModelSpec):
        closed = caterpillar_param_formula(spec)
        print(f"closed-form params: {closed}  (match: {'yes' if closed == total else 'NO'})")
        widths = spec.widths
        print("local-mixer closed forms per stage width d (biasless):")
        for d in widths:
            conv = local_mixer_param_count(d, d, "conv", 3)
            spc_n = local_mixer_param_count(d, d, "spc")
            dw = local_mixer_param_count(d, d, "dwconv", 3)
            print(
                f"  d={d}: conv3x3 9d^2={conv}  spc 2d^2={spc_n}  ratio {conv / spc_n:.2f}"
                f"  dwconv 9d={dw}"
            )
    if args.compare_local:
        other = dataclasses.replace(
            spec, block=dataclasses.replace(spec.block, local_mixer=args.compare_local)
        )
        other_total, _ = count_params(build_model(other))
        print(
            f"delta vs local_mixer={args.compare_local}: {total - other_total} "
            f"({(total - other_total) / 1e6:.2f}M)"
        )
    if args.csv:
        def layer_macs(param_name: str):
            hits = [k for k in mac_by_name if param_name.startswith(k + ".")]
            return mac_by_name[max(hits, key=len)] if hits else ""

        with open(args.csv, "w", encoding="utf-8") as f:
            f.write("# paramcount-v1\n")
            f.write("name,shape,params,macs\n")
            for name, shape, nparams in rows:
                shape_s = "x".join(str(d) for d in shape) if shape else "scalar"
                f.write(f"{name},{shape_s},{nparams},{layer_macs(name)}\n")
        print(f"per-parameter table written to {args.csv}")
    return 0


def _gradcheck_cases(spc_override: str | None) -> list:
    """Every check as (target, config_text, module_factory, input_shape, tolerance)."""
    shape44 = (1, 4, 4, 8)
    cases = [
        ("linear", "8->5", lambda r: Linear(8, 5, rng=r), shape44, 1e-8),
        ("batchnorm", "c=8", lambda r: BatchNorm2d(8), shape44, 1e-4),
        ("layernorm", "c=8", lambda r: LayerNorm(8), shape44, 1e-4),
        ("gelu", "", lambda r: GELU(), shape44, 1e-4),
        ("relu", "", lambda r: ReLU(), shape44, 1e-4),
        ("ffn", "ratio=2", lambda r: FFN(8, 2, rng=r), shape44, 1e-4),
        ("conv", "k=3 s=1", lambda r: Conv2d(3, 8, 6, rng=r), shape44, 1e-8),
        ("conv", "k=3 s=2", lambda r: Conv2d(3, 8, 6, stride=2, rng=r), shape44, 1e-8),
        ("dwconv", "k=3", lambda r: DWConv2d(3, 8, rng=r), shape44, 1e-8),
        ("avgpool", "k=2", lambda r: AvgPool2d(2), shape44, 1e-8),
        ("maxpool", "k=3 s=2", lambda r: MaxPool2d(3, 2), shape44, 1e-4),
        ("smlp", "4x4x8", lambda r: Smlp(4, 4, 8, rng=r), shape44, 1e-6),
    ]
    if spc_override is not None:
        spc_cfgs = [parse_spc_config(spc_override)]
    else:
        spc_cfgs = [
            SpcConfig.preset(nd, steps=s, padding=pad, mixing=mix)
            for nd in sorted(DIRECTION_PRESETS)
            for s in (0, 1, 2)
            for pad in PADDING_MODES
            for mix in MIXING_WAYS
        ]
    for cfg in spc_cfgs:
        # the smallest width >= 8 that every direction's reduction divides
        n = cfg.n_directions if cfg.reduces_channels else 1
        c = -(-8 // n) * n
        cases.append(("spc", spc_config_text(cfg), lambda r, cfg=cfg, c=c: Spc(c, cfg=cfg, rng=r),
                      (1, 5, 5, c), 1e-6))
    combos = [("spc", combine) for combine in COMBINE_STRATEGIES]
    combos += [("dwconv", "LG"), ("identity", "LG")]
    for mixer, combine in combos:
        cfg = BlockConfig(local_mixer=mixer, combine=combine, ffn_ratio=2)
        cases.append(("block", f"local={mixer} combine={combine}",
                      lambda r, cfg=cfg: MixerBlock(4, 4, 8, cfg, rng=r), shape44, 1e-4))
    return cases


def run_gradcheck(target: str = "all", spc_override: str | None = None, trials: int = 1, seed: int = 0):
    """Run the finite-difference checks target names; returns (all_passed, rows)."""
    if trials < 1:
        raise ConfigError(f"gradcheck: trials must be >= 1, got {trials}")
    cases = _gradcheck_cases(spc_override)
    picked = [case for case in cases if target in ("all", case[0])]
    if not picked:
        known = sorted({case[0] for case in cases})
        raise CaterpillarError(
            f"gradcheck: no check matches target {target!r}; known: all, {', '.join(known)}"
        )
    rows = []
    for name, cfg_text, factory, shape, tol in picked:
        worst = 0.0
        for trial in range(trials):
            module = factory(Rng(seed + 13 * trial + 1))
            x = Rng(seed + 977 * trial).normal(int(np.prod(shape))).reshape(shape)
            worst = max(worst, finite_diff_check(module, x, seed=seed + trial))
        rows.append((name, cfg_text, worst, tol, worst < tol))
    return all(row[4] for row in rows), rows


def cmd_gradcheck(args) -> int:
    ok, rows = run_gradcheck(args.target, args.config, args.trials, args.seed)
    width = max(len(r[1]) for r in rows)
    for name, cfg_text, worst, tol, passed in rows:
        status = "pass" if passed else "FAIL"
        print(f"{status}  {name:<10} {cfg_text:<{width}}  max_rel_err={worst:.3e}  tol={tol:g}")
    print(f"{sum(1 for r in rows if r[4])}/{len(rows)} checks passed")
    if not ok:
        offenders = [f"{n} [{c}]" for n, c, _, _, p in rows if not p]
        print("failures: " + "; ".join(offenders), file=sys.stderr)
        return 1
    return 0


# Bench operator -> its constructor from (channels, rng); --op all runs each.
_BENCH_OPS = {
    "spc": lambda c, rng: Spc(c, rng=rng),
    "conv3x3": lambda c, rng: Conv2d(3, c, c, rng=rng),
    "dwconv3x3": lambda c, rng: DWConv2d(3, c, rng=rng),
}


def cmd_bench(args) -> int:
    for flag, low in (("reps", 1), ("batch", 1), ("hw", 1), ("channels", 1), ("warmup", 0)):
        if getattr(args, flag) < low:
            raise ConfigError(f"bench: --{flag} must be >= {low}, got {getattr(args, flag)}")
    ops = list(_BENCH_OPS) if args.op == "all" else [args.op]
    dtype = _DTYPES[args.dtype]
    shape = (args.batch, args.hw, args.hw, args.channels)
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    lines = [
        BENCH_SCHEMA,
        f"# dtype={args.dtype}",
        # numpy's OpenBLAS reads OPENBLAS_NUM_THREADS first, then OMP_NUM_THREADS
        *(f"# {var}={os.environ.get(var, 'unset')}"
          for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")),
        f"# cpu_count={os.cpu_count()}",
        f"# numpy={np.__version__}",
        f"# blas={blas.get('name')} {blas.get('version')}",
        f"# timestamp={time.strftime('%Y-%m-%dT%H:%M:%S')}",
        BENCH_HEADER,
    ]
    directions = ("fwd", "fwd+bwd") if args.direction == "both" else (args.direction,)
    mac_values = {}
    faults = []  # "# " lines after the rows: minor page faults per timed rep of each row
    for op in ops:
        layer = _BENCH_OPS[op](args.channels, Rng(args.seed)).astype(dtype)
        x = Rng(args.seed + 1).normal(int(np.prod(shape))).reshape(shape).astype(dtype)
        macs = layer.macs(shape)
        mac_values[op] = macs
        cfg_text = spc_config_text(layer.cfg) if op == "spc" else f"k=3;c={args.channels}"
        for direction in directions:
            def body():
                y = layer.forward(x, training=True)
                if direction == "fwd+bwd":
                    layer.zero_grad()
                    layer.backward(y)
            for _ in range(args.warmup):
                body()
            minflt = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            t0 = time.perf_counter()
            for _ in range(args.reps):
                body()
            wall = time.perf_counter() - t0
            minflt = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - minflt
            faults.append(f"# minor_faults_per_rep {op},{direction}={minflt / args.reps:.2f}")
            ips = args.batch * args.reps / wall if wall > 0 else float("inf")
            lines.append(
                f"{op},{cfg_text},{'x'.join(str(d) for d in shape)},{direction},"
                f"{wall:.6f},{ips:.2f},{macs}"
            )
    lines += faults
    # ru_maxrss is in KiB on Linux
    lines.append(f"# peak_rss_mb={resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.1f}")
    if "spc" in mac_values and "conv3x3" in mac_values:
        ratio = mac_values["conv3x3"] / mac_values["spc"]
        print(f"analytic MACs/map at d={args.channels}: conv3x3/spc = {ratio:.2f}")
    text = "\n".join(lines) + "\n"
    print(text, end="")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(text)
    return 0


def _write_history(path: str, history) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(HISTORY_SCHEMA + "\n")
        f.write(HISTORY_HEADER + "\n")
        for step, lr, loss, acc in history:
            f.write(f"{step},{lr:.17g},{loss:.17g},{acc:.17g}\n")


def cmd_train(args) -> int:
    spec = _spec_from_args(args)
    data = _data_from_args(args)
    cfg = TrainConfig(**{field: getattr(args, _dest(flag)) for flag, field in _TRAIN_FLAGS})
    dtype = _DTYPES[args.dtype]
    model = build_model(spec, seed=cfg.seed).astype(dtype)
    _check_compat(model, data)
    images = data.images.astype(dtype)
    history = train_loop(model, images, data.labels, cfg)
    if args.history:
        _write_history(args.history, history)
        print(f"history written to {args.history}")
    final_acc = evaluate(model, images, data.labels)
    print(f"final_train_batch_acc={history[-1][3]:.6f}")
    print(f"final_eval_acc={final_acc:.6f}")
    if args.checkpoint:
        save_checkpoint(args.checkpoint, model)
        print(f"checkpoint written to {args.checkpoint}")
    return 0


def cmd_eval(args) -> int:
    model = load_checkpoint(args.checkpoint)
    data = _data_from_args(args)
    _check_compat(model, data)
    dtype = next(model.parameters()).value.dtype
    acc = evaluate(model, data.images.astype(dtype), data.labels)
    print(f"top1={acc:.6f}")
    return 0


def write_pgm(path: str, image: np.ndarray) -> tuple[float, float]:
    """Min-max scale a 2-D map to bytes and write binary PGM (P5)."""
    lo, hi = float(image.min()), float(image.max())
    if hi > lo:
        scaled = np.round((image - lo) / (hi - lo) * 255.0).astype(np.uint8)
    else:
        scaled = np.zeros_like(image, dtype=np.uint8)
    h, w = image.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(scaled.tobytes())
    return lo, hi


def cmd_dump_features(args) -> int:
    model = load_checkpoint(args.checkpoint)
    data = _data_from_args(args)
    _check_compat(model, data)
    if not 0 <= args.image_index < len(data.images):
        raise CaterpillarError(
            f"image index {args.image_index} out of range [0, {len(data.images)})"
        )
    x = data.images[args.image_index : args.image_index + 1].astype(np.float32)
    feats = model.stage_features(x)
    if args.stage != "all":
        k = parse_int(args.stage, "--stage")
        if not 1 <= k <= len(feats):
            raise CaterpillarError(f"stage {k} out of range 1..{len(feats)}")
        feats = {k: feats[k - 1]}
    else:
        feats = dict(enumerate(feats, start=1))
    if args.reduce == "mean":
        ch, tag = None, "mean"
    elif args.reduce.startswith("channel:"):
        ch = parse_int(args.reduce.split(":", 1)[1], "--reduce")
        for k, fmap in feats.items():
            if not 0 <= ch < fmap.shape[3]:
                raise CaterpillarError(f"channel {ch} out of range for stage {k}")
        tag = f"channel{ch}"
    else:
        raise CaterpillarError(f"unknown reduce {args.reduce!r}")
    os.makedirs(args.out_dir, exist_ok=True)
    for k, fmap in feats.items():
        image = fmap[0].mean(axis=2) if ch is None else fmap[0, :, :, ch]
        path = os.path.join(args.out_dir, f"stage{k}_{tag}.pgm")
        lo, hi = write_pgm(path, image)
        print(f"{path}: {fmap.shape[1]}x{fmap.shape[2]} scaled from [{lo:.6g}, {hi:.6g}]")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="caterpillar",
        description="shift-mixer models: accounting, verification, training, benchmarks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("paramcount", help="parameter and MAC accounting")
    _add_model_args(p)
    p.add_argument("--compare-local", choices=sorted(LOCAL_MIXERS))
    p.add_argument("--csv", help="write the per-parameter table here")
    p.set_defaults(fn=cmd_paramcount)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p.add_argument("--target", default="all")
    p.add_argument("--config", help="spc config override, e.g. 'padding=reflect'")
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_gradcheck)

    p = sub.add_parser("bench", help="operator throughput microbenchmark")
    p.add_argument("--op", default="all", choices=("all", *_BENCH_OPS))
    p.add_argument("--channels", type=int, default=64)
    p.add_argument("--hw", type=int, default=32)
    p.add_argument("--batch", type=int, default=8)
    p.add_argument("--reps", type=int, default=3)
    p.add_argument("--warmup", type=int, default=1)
    p.add_argument("--direction", choices=("fwd", "fwd+bwd", "both"), default="both")
    p.add_argument("--dtype", choices=_DTYPES, default="f32")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="also write the CSV here")
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("train", help="toy deterministic training run")
    _add_model_args(p)
    _add_data_args(p)
    defaults = TrainConfig()
    for flag, field in _TRAIN_FLAGS:
        default = getattr(defaults, field)
        p.add_argument(flag, type=type(default), default=default)
    p.add_argument("--dtype", choices=_DTYPES, default="f32")
    p.add_argument("--history", help="history CSV output path")
    p.add_argument("--checkpoint", help="checkpoint output path")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="top-1 accuracy of a checkpoint")
    p.add_argument("--checkpoint", required=True)
    _add_data_args(p)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("dump-features", help="write stage feature maps as PGM files")
    p.add_argument("--checkpoint", required=True)
    _add_data_args(p)
    p.add_argument("--image-index", type=int, default=0)
    p.add_argument("--stage", default="all", help="stage number or 'all'")
    p.add_argument("--reduce", default="mean", help="mean or channel:<i>")
    p.add_argument("--out-dir", default=".")
    p.set_defaults(fn=cmd_dump_features)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (CaterpillarError, OSError, MemoryError) as exc:
        # a MemoryError may carry no message
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
