"""Acceptance gate: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import dataclasses
import re
import time

import numpy as np
import numpy.testing as npt
import pytest

from caterpillar.blocks import COMBINE_STRATEGIES, LOCAL_MIXERS, BlockConfig, MixerBlock
from caterpillar.cli import main as cli_main
from caterpillar.cli import run_gradcheck
from caterpillar.data import load_cifar10_binary, load_idx, synth_blobs
from caterpillar.layers import Linear
from caterpillar.models import (
    ModelSpec,
    ResnetSpec,
    build_model,
    count_params,
    estimate_flops,
    load_checkpoint,
    local_mixer_param_count,
    save_checkpoint,
)
from caterpillar.spc import (
    DIRECTION_PRESETS,
    MIXING_WAYS,
    PADDING_MODES,
    Spc,
    SpcConfig,
)
from caterpillar.tensor import Rng, max_rel_error
from caterpillar.train import TrainConfig, evaluate, train_loop
from oracles import pillars_shift, spc_oracle
from writers import save_cifar10_binary, save_idx


def report(n, name, detail=""):
    print(f"ACCEPTANCE {n} ({name}): PASS {detail}".rstrip())


def grid_channels(cfg: SpcConfig, base: int = 8) -> int:
    if not cfg.reduces_channels or base % cfg.n_directions == 0:
        return base
    nd = cfg.n_directions
    return nd * ((base + nd - 1) // nd)


def test_01_oracle_equivalence_full_grid():
    t0 = time.time()
    # every extent >= 5 so reflect padding admits steps 2 (needs 2s < extent)
    shapes = [(2, 5, 5), (1, 6, 5), (2, 5, 6), (1, 6, 6)]
    cases = 0
    worst = 0.0
    seed = 0
    for nd in sorted(DIRECTION_PRESETS):
        for steps in (0, 1, 2):
            for padding in PADDING_MODES:
                for mixing in MIXING_WAYS:
                    cfg = SpcConfig.preset(nd, steps=steps, padding=padding, mixing=mixing)
                    c = grid_channels(cfg)
                    n, h, w = shapes[cases % len(shapes)]
                    seed += 1
                    layer = Spc(c, cfg=cfg, rng=Rng(seed))
                    biases = Rng(3000 + seed)  # a fresh layer's biases are all zero
                    for name, p in layer.named_parameters():
                        if name.endswith("b"):
                            p.value = biases.normal(p.value.size)
                    x = Rng(1000 + seed).normal(n * h * w * c).reshape(n, h, w, c)
                    err = max_rel_error(layer.forward(x), spc_oracle(x, layer))
                    worst = max(worst, err)
                    assert err < 1e-12, (cfg, err)
                    cases += 1
    elapsed = time.time() - t0
    assert cases == 4 * 3 * 4 * 5 == 240 >= 200
    assert elapsed < 60.0
    report(1, "oracle equivalence", f"[{cases} cases, worst {worst:.2e}, {elapsed:.1f}s]")


def test_02_gradient_suite():
    t0 = time.time()
    ok, rows = run_gradcheck("all", trials=1, seed=0)
    elapsed = time.time() - t0
    failures = [(n, c, e) for n, c, e, _, p in rows if not p]
    assert ok, failures
    assert elapsed < 300.0
    spc_rows = [r for r in rows if r[0] == "spc"]
    block_rows = [r for r in rows if r[0] == "block"]
    assert len(spc_rows) == 240 and len(block_rows) == 8
    worst = max(e for _, _, e, _, _ in rows)
    report(2, "gradient suite", f"[{len(rows)} checks, worst {worst:.2e}, {elapsed:.1f}s]")


def test_03_mixer_accounting_closed_forms():
    d = 80
    conv = local_mixer_param_count(d, d, "conv", 3)
    spc_count = local_mixer_param_count(d, d, "spc")
    assert conv == 9 * d * d
    assert spc_count == 2 * d * d
    assert conv / spc_count == 4.5
    layer = Spc(d, cfg=SpcConfig(), rng=Rng(1))
    weights = sum(p.value.size for n, p in layer.named_parameters() if n.endswith("w"))
    assert weights == spc_count == 12800
    report(3, "local-mixer closed forms", f"[conv {conv}, spc {spc_count}, ratio 4.5]")


def test_04_model_accounting_vs_tables():
    t = build_model(ModelSpec.preset("T"))
    t_params, _ = count_params(t)
    t_macs, _ = estimate_flops(t, (1, 224, 224, 3))
    assert abs(t_params - 29e6) <= 0.10 * 29e6
    assert abs(t_macs - 6.0e9) <= 0.15 * 6.0e9

    mi = build_model(ModelSpec.preset("Mi"))
    mi_params, _ = count_params(mi)
    mi_macs, _ = estimate_flops(mi, (1, 224, 224, 3))
    assert abs(mi_params - 6e6) <= 0.10 * 6e6
    assert abs(mi_macs - 1.2e9) <= 0.15 * 1.2e9

    r18_spc, _ = count_params(build_model(ResnetSpec(64, "spc", 10, (32, 32, 3))))
    assert abs(r18_spc - 2.6e6) <= 0.15 * 2.6e6
    r18_conv, _ = count_params(build_model(ResnetSpec(64, "conv3x3", 1000, (224, 224, 3))))
    assert abs(r18_conv - 12e6) <= 0.10 * 12e6
    report(
        4,
        "model accounting vs tables",
        f"[T {t_params/1e6:.2f}M/{t_macs/1e9:.2f}G, Mi {mi_params/1e6:.2f}M/"
        f"{mi_macs/1e9:.2f}G, r18spc {r18_spc/1e6:.2f}M, r18 {r18_conv/1e6:.2f}M]",
    )


def test_05_local_mixer_delta():
    deltas = []
    for ratio in (2, 3, 4):
        spc_spec = ModelSpec.preset("T", block=BlockConfig(ffn_ratio=ratio))
        dw_spec = dataclasses.replace(
            spc_spec, block=dataclasses.replace(spc_spec.block, local_mixer="dwconv")
        )
        a, _ = count_params(build_model(spc_spec))
        b, _ = count_params(build_model(dw_spec))
        deltas.append(a - b)
    assert deltas[0] == deltas[1] == deltas[2]
    assert 4.5e6 <= deltas[0] <= 5.3e6
    report(5, "local-mixer delta", f"[delta {deltas[0]} for ffn_ratio 2,3,4]")


def test_06_structured_convolution_equivalence():
    worst = 0.0
    for case in range(50):
        layer = Spc(8, cfg=SpcConfig(), rng=Rng(case + 1))
        x = Rng(2000 + case).normal(2 * 5 * 5 * 8).reshape(2, 5, 5, 8)
        maps = pillars_shift(x, layer.cfg)
        width = 8 // 4
        bias = layer.fuse.b.value.copy()
        total = np.zeros_like(x)
        for d, lin in enumerate(layer._reduce):
            fuse_rows = layer.fuse.w.value[d * width : (d + 1) * width, :]
            total += maps[d] @ (lin.w.value @ fuse_rows)
            bias = bias + lin.b.value @ fuse_rows
        total += bias
        err = max_rel_error(layer.forward(x), total)
        worst = max(worst, err)
        assert err < 1e-10
    report(6, "structured-convolution equivalence", f"[50 cases, worst {worst:.2e}]")


def test_07_translation_equivariance():
    worst = 0.0
    for case in range(10):
        layer = Spc(8, cfg=SpcConfig(), rng=Rng(case + 3))
        x = Rng(3000 + case).normal(1 * 6 * 6 * 8).reshape(1, 6, 6, 8)
        out = layer.forward(x).copy()
        for di, dj in ((1, 0), (0, 1), (1, 1)):
            x_t = np.roll(x, (di, dj), axis=(1, 2))
            out_t = layer.forward(x_t)
            # interior at least s+1 = 2 pillars from every border
            got = out_t[:, 2:5, 2:5, :]
            ref = out[:, 2 - di : 5 - di, 2 - dj : 5 - dj, :]
            err = max_rel_error(got, ref)
            worst = max(worst, err)
            assert err < 1e-12
    report(7, "translation equivariance", f"[worst {worst:.2e}]")


@pytest.mark.slow
def test_08_micro_overfit_and_determinism():
    spec = ModelSpec(
        variant="custom",
        base_width=16,
        depths=(1, 1, 1, 1),
        patch_size=1,
        input=(16, 16, 3),
        num_classes=8,
        block=BlockConfig(ffn_ratio=2),
    )
    data = synth_blobs(0, 64, 16, 16, 3, 8)
    images = data.images.astype(np.float32)
    cfg = TrainConfig(total_steps=120, batch_size=64, seed=5)

    t0 = time.time()
    model = build_model(spec, seed=5).astype(np.float32)
    history = train_loop(model, images, data.labels, cfg)
    elapsed = time.time() - t0

    first_full = next((s for s, _, _, acc in history if acc == 1.0), None)
    assert first_full is not None and first_full <= 500
    assert history[-1][3] == 1.0
    eval_acc = evaluate(model, images, data.labels)
    assert eval_acc == 1.0
    assert elapsed < 120.0

    model_b = build_model(spec, seed=5).astype(np.float32)
    history_b = train_loop(model_b, images, data.labels, cfg)
    assert history == history_b  # bit-identical floats
    report(
        8,
        "micro overfit",
        f"[100% train acc at step {first_full}, eval {eval_acc:.2f}, {elapsed:.1f}s]",
    )


def test_09_ablation_grid_constructibility():
    built = 0
    for combine in COMBINE_STRATEGIES:
        for mixer in LOCAL_MIXERS:
            for nd in sorted(DIRECTION_PRESETS):
                mixing = "reduce_concat_fuse" if 8 % nd == 0 else "concat_fuse"
                cfg = BlockConfig(
                    local_mixer=mixer,
                    combine=combine,
                    ffn_ratio=2,
                    spc=SpcConfig.preset(nd, mixing=mixing),
                )
                block = MixerBlock(8, 8, 8, cfg, rng=Rng(built + 1))
                x = Rng(4000 + built).normal(1 * 8 * 8 * 8).reshape(1, 8, 8, 8)
                out = block.forward(x, training=True)
                assert out.shape == x.shape and np.all(np.isfinite(out))
                block.zero_grad()
                dx = block.backward(np.ones_like(out))
                assert dx.shape == x.shape and np.all(np.isfinite(dx))
                built += 1
    assert built == 6 * 3 * 4 == 72
    report(9, "ablation grid constructibility", f"[{built} blocks forward+backward]")


def test_10_format_fidelity(tmp_path):
    # CIFAR-10 binary roundtrip
    raw = b"".join(
        bytes([k % 10]) + bytes((k * 31 + i) % 256 for i in range(3072)) for k in range(4)
    )
    src = tmp_path / "cifar.bin"
    src.write_bytes(raw)
    loaded = load_cifar10_binary(str(src))
    dst = tmp_path / "cifar2.bin"
    save_cifar10_binary(str(dst), loaded)
    assert dst.read_bytes() == raw

    # IDX roundtrip
    import struct

    img = tmp_path / "img.idx"
    lab = tmp_path / "lab.idx"
    body = bytes((i * 17) % 256 for i in range(3 * 4 * 5))
    img.write_bytes(struct.pack(">IIII", 0x803, 3, 4, 5) + body)
    lab.write_bytes(struct.pack(">II", 0x801, 3) + bytes((0, 5, 9)))
    data = load_idx(str(img), str(lab))
    img2, lab2 = tmp_path / "img2.idx", tmp_path / "lab2.idx"
    save_idx(str(img2), str(lab2), data)
    assert img2.read_bytes() == img.read_bytes()
    assert lab2.read_bytes() == lab.read_bytes()

    # checkpoint roundtrip
    spec = ModelSpec(
        variant="custom", base_width=8, depths=(1, 1, 1, 1), patch_size=1,
        input=(16, 16, 3), num_classes=4, block=BlockConfig(ffn_ratio=2),
    )
    model = build_model(spec, seed=2).astype(np.float32)
    model.forward(
        Rng(3).normal(2 * 16 * 16 * 3).reshape(2, 16, 16, 3).astype(np.float32),
        training=True,
    )
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(str(p1), model)
    save_checkpoint(str(p2), load_checkpoint(str(p1)))
    assert p1.read_bytes() == p2.read_bytes()
    report(10, "format fidelity", "[cifar, idx, checkpoint roundtrips bit-exact]")


def test_11_bench_macs_cross_check(tmp_path, capsys):
    out_csv = tmp_path / "bench.csv"
    code = cli_main(
        [
            "bench", "--op", "all", "--channels", "8", "--hw", "6", "--batch", "2",
            "--reps", "1", "--warmup", "0", "--out", str(out_csv),
        ]
    )
    capsys.readouterr()
    assert code == 0
    rows = [
        line.split(",")
        for line in out_csv.read_text().splitlines()
        if re.match(r"^(spc|conv3x3|dwconv3x3),", line)
    ]
    assert {r[0] for r in rows} == {"spc", "conv3x3", "dwconv3x3"}
    assert len(rows) == 6  # throughput reported (not asserted) for both directions

    # the CSV's analytic MAC column must agree exactly with estimate_flops'
    # counter applied to the same operator at the same shape
    class SingleOpModel:
        def __init__(self, layer, input_shape):
            self.layer = layer
            self.spec = dataclasses.make_dataclass("S", ["input"])(tuple(input_shape[1:]))

        def macs_rows(self, input_shape):
            return [("op", self.layer.macs(tuple(input_shape)))]

    from caterpillar.layers import Conv2d, DWConv2d

    shape = (2, 6, 6, 8)
    ops = {
        "spc": Spc(8, cfg=SpcConfig(), rng=Rng(0)),
        "conv3x3": Conv2d(3, 8, 8, rng=Rng(0)),
        "dwconv3x3": DWConv2d(3, 8, rng=Rng(0)),
    }
    csv_macs = {r[0]: int(r[-1]) for r in rows}
    for name, layer in ops.items():
        total, _ = estimate_flops(SingleOpModel(layer, shape), shape)
        assert total == csv_macs[name], name
    report(11, "bench MAC cross-check", f"[{csv_macs}]")
