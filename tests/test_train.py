import math

import numpy as np
import numpy.testing as npt
import pytest

from caterpillar.blocks import COMBINE_STRATEGIES, LOCAL_MIXERS, BlockConfig
from caterpillar.data import synth_blobs
from caterpillar.errors import ConfigError, NumericError
from caterpillar.models import ModelSpec, ResnetSpec, build_model
from caterpillar.tensor import Rng, max_rel_error
from caterpillar.train import (
    ADAMW_BETAS,
    ADAMW_EPS,
    AdamW,
    TrainConfig,
    adamw_step,
    ce_label_smoothing,
    cosine_lr,
    evaluate,
    train_loop,
)

CFG = TrainConfig(warmup_steps=10, total_steps=100)


def micro_model(seed=0, hw=16, c=8, classes=4):
    spec = ModelSpec(
        variant="custom",
        base_width=c,
        depths=(1, 1, 1, 1),
        patch_size=1,
        input=(hw, hw, 3),
        num_classes=classes,
        block=BlockConfig(ffn_ratio=2),
    )
    return build_model(spec, seed=seed)


class TestCosineLr:
    def test_step_zero_is_warmup_lr(self):
        assert cosine_lr(0, CFG) == 1e-6

    def test_final_step_is_min_lr(self):
        assert abs(cosine_lr(100, CFG) - 1e-5) < 1e-20

    def test_post_warmup_midpoint(self):
        mid = CFG.warmup_steps + (CFG.total_steps - CFG.warmup_steps) // 2
        expected = CFG.lr_min + 0.5 * (CFG.lr_peak - CFG.lr_min)
        assert abs(cosine_lr(mid, CFG) - expected) < 1e-18

    def test_continuity_at_warmup_boundary(self):
        eps_before = cosine_lr(CFG.warmup_steps - 1, CFG)
        at = cosine_lr(CFG.warmup_steps, CFG)
        assert at == CFG.lr_peak
        assert abs(at - eps_before) < (CFG.lr_peak - CFG.warmup_lr) / CFG.warmup_steps * 1.01

    def test_range_errors(self):
        with pytest.raises(ConfigError):
            cosine_lr(-1, CFG)
        with pytest.raises(ConfigError):
            cosine_lr(101, CFG)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(warmup_steps=100, total_steps=100)
        with pytest.raises(ConfigError):
            TrainConfig(lr_min=2e-3, lr_peak=1e-3, total_steps=10)

    @pytest.mark.parametrize(
        "field, value",
        [("lr_peak", math.inf), ("lr_min", math.nan), ("warmup_lr", -math.inf),
         ("weight_decay", math.nan), ("weight_decay", math.inf)],
    )
    def test_non_finite_rates(self, field, value):
        with pytest.raises(ConfigError, match=field):
            TrainConfig(total_steps=10, **{field: value})

    def test_edge_values_accepted(self):
        TrainConfig(total_steps=10, weight_decay=0.0)


class TestAdamW:
    def test_zero_grad_is_pure_decay(self):
        cfg = TrainConfig(total_steps=10)
        theta = np.array([1.0, -2.0])
        m, v = np.zeros(2), np.zeros(2)
        adamw_step(theta, np.zeros(2), m, v, 1, 1e-3, cfg)
        npt.assert_allclose(theta, np.array([1.0, -2.0]) * (1 - 1e-3 * 0.05), rtol=1e-15)

    def test_first_step_scalar_trace(self):
        cfg = TrainConfig(total_steps=10)
        lr = 1e-3
        theta = np.array([1.0])
        m, v = np.zeros(1), np.zeros(1)
        adamw_step(theta, np.array([1.0]), m, v, 1, lr, cfg)
        # independent scalar trace: mhat = vhat = 1 at step 1
        expected = 1.0 - lr * cfg.weight_decay * 1.0 - lr * (1.0 / (1.0 + ADAMW_EPS))
        npt.assert_allclose(theta[0], expected, rtol=1e-15)

    def test_reduces_to_adam_without_decay(self):
        cfg = TrainConfig(total_steps=10, weight_decay=0.0)
        lr = 1e-2
        rng = Rng(1)
        grads = rng.normal(5)
        theta = np.array([0.5])
        m, v = np.zeros(1), np.zeros(1)
        for t, g in enumerate(grads, start=1):
            adamw_step(theta, np.array([g]), m, v, t, lr, cfg)
        # hand-rolled scalar Adam
        b1, b2 = ADAMW_BETAS
        sm = sv = 0.0
        ref = 0.5
        for t, g in enumerate(grads, start=1):
            sm = b1 * sm + (1 - b1) * g
            sv = b2 * sv + (1 - b2) * g * g
            ref -= lr * (sm / (1 - b1**t)) / (math.sqrt(sv / (1 - b2**t)) + ADAMW_EPS)
        assert max_rel_error(theta, np.array([ref])) < 1e-12

    def test_non_finite_gradient_names_parameter(self):
        model = micro_model(1)
        named = list(model.named_parameters())
        opt = AdamW(named, TrainConfig(total_steps=10))
        named[3][1].grad[...] = np.nan
        with pytest.raises(NumericError, match=named[3][0]):
            opt.step(1e-3)

    @pytest.mark.parametrize("spec", [
        *(ModelSpec(variant="custom", base_width=8, depths=(1, 1, 1, 1), patch_size=1,
                    input=(16, 16, 3), num_classes=4,
                    block=BlockConfig(local_mixer=mixer, combine=combine, ffn_ratio=2))
          for mixer in LOCAL_MIXERS for combine in COMBINE_STRATEGIES),
        *(ResnetSpec(n_c=4, local_mixer=mixer, num_classes=4, input=(16, 16, 3))
          for mixer in ("conv3x3", "spc")),
    ], ids=lambda spec: spec.serialize().replace("\n", " "))
    def test_decay_exactly_the_matrices(self, spec):
        # With zero gradients a step is pure decay: every parameter of rank
        # >= 2 shrinks by lr * weight_decay, and every bias, norm scale and
        # scalar weight stays as it was.
        model = build_model(spec)
        named = list(model.named_parameters())
        before = [p.value.copy() for _, p in named]
        cfg = TrainConfig(total_steps=10)
        AdamW(named, cfg).step(1e-2)
        for (name, p), old in zip(named, before):
            if old.ndim >= 2:
                npt.assert_array_equal(p.value, old - 1e-2 * cfg.weight_decay * old, err_msg=name)
                assert np.any(p.value != old), name
            else:
                npt.assert_array_equal(p.value, old, err_msg=name)


class TestLoss:
    def test_uniform_logits_give_log_k(self):
        for k in (2, 7, 10):
            logits = np.zeros((3, k))
            for smoothing in (0.0, 0.1, 0.5):
                loss, _ = ce_label_smoothing(logits, np.zeros(3, dtype=int), smoothing)
                assert abs(loss - math.log(k)) < 1e-15

    def test_no_smoothing_reduces_to_ce(self):
        logits = np.zeros((1, 5))
        logits[0, 2] = 60.0
        loss, _ = ce_label_smoothing(logits, np.array([2]), 0.0)
        assert loss < 1e-12

    def test_direct_formula_and_gradient(self):
        rng = Rng(2)
        logits = rng.normal(4 * 10).reshape(4, 10)
        labels = np.array([0, 3, 9, 5])
        loss, dlogits = ce_label_smoothing(logits, labels, 0.1)
        # direct formula with explicit softmax
        probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        targets = np.full((4, 10), 0.1 / 10)
        targets[np.arange(4), labels] += 0.9
        ref = float(-(targets * np.log(probs)).sum() / 4)
        assert abs(loss - ref) < 1e-12
        # central differences on the loss
        eps = 1e-6
        num = np.zeros_like(logits)
        for i in range(4):
            for j in range(10):
                up = logits.copy()
                up[i, j] += eps
                down = logits.copy()
                down[i, j] -= eps
                num[i, j] = (
                    ce_label_smoothing(up, labels, 0.1)[0]
                    - ce_label_smoothing(down, labels, 0.1)[0]
                ) / (2 * eps)
        assert max_rel_error(dlogits, num) < 1e-6

    def test_loss_nonnegative(self):
        rng = Rng(3)
        for _ in range(50):
            logits = 5.0 * rng.normal(2 * 4).reshape(2, 4)
            labels = (rng.uniform(2) * 4).astype(int)
            loss, _ = ce_label_smoothing(logits, labels, 0.1)
            assert loss >= 0.0

    def test_label_out_of_range(self):
        with pytest.raises(IndexError):
            ce_label_smoothing(np.zeros((2, 3)), np.array([0, 3]), 0.1)


class TestTrainLoop:
    def test_zero_lr_constant_loss(self):
        model = micro_model(2)  # float64: the 1e-12 band is a float64 contract
        data = synth_blobs(1, 16, 16, 16, 3, 4)
        tiny = 1e-300  # rates must be positive; this is numerically zero
        cfg = TrainConfig(
            lr_peak=tiny, lr_min=tiny, warmup_lr=tiny, total_steps=8,
            batch_size=16, seed=3, weight_decay=0.0,
        )
        hist = train_loop(model, data.images, data.labels, cfg)
        losses = [h[2] for h in hist]
        assert max(losses) - min(losses) < 1e-12

    def test_same_seed_bit_identical_history(self):
        data = synth_blobs(2, 24, 16, 16, 3, 4)
        runs = []
        for _ in range(2):
            model = micro_model(4).astype(np.float32)
            cfg = TrainConfig(total_steps=6, batch_size=8, seed=11)
            runs.append(train_loop(model, data.images.astype(np.float32), data.labels, cfg))
        assert runs[0] == runs[1]

    def test_single_step_loss_decrease_smoke(self):
        # holds in >= 95% of 20 seeded trials
        wins = 0
        data = synth_blobs(5, 16, 16, 16, 3, 4)
        for trial in range(20):
            model = micro_model(100 + trial).astype(np.float64)
            cfg = TrainConfig(
                lr_peak=1e-4, lr_min=1e-5, warmup_steps=0, total_steps=2,
                batch_size=16, seed=trial,
            )
            hist = train_loop(model, data.images, data.labels, cfg)
            if hist[1][2] < hist[0][2]:
                wins += 1
        assert wins >= 19

    def test_gradient_accumulation_matches_full_batch(self):
        # eval-mode batchnorm so shard statistics cannot differ
        model = micro_model(6)
        data = synth_blobs(7, 12, 16, 16, 3, 4)
        images, labels = data.images, data.labels

        def grads_for(sl, weight):
            logits = model.forward(images[sl], training=False)
            _, dlogits = ce_label_smoothing(logits, labels[sl], 0.1)
            model.zero_grad()
            model.backward(dlogits * weight)
            return {n: p.grad.copy() for n, p in model.named_parameters()}

        full = grads_for(slice(None), 1.0)
        parts = [grads_for(slice(0, 4), 4 / 12), grads_for(slice(4, 12), 8 / 12)]
        for name in full:
            acc = parts[0][name] + parts[1][name]
            assert max_rel_error(acc, full[name]) < 1e-10, name

    def test_evaluate_runs_eval_batchnorm(self):
        model = micro_model(8).astype(np.float32)
        data = synth_blobs(9, 10, 16, 16, 3, 4)
        images = data.images.astype(np.float32)
        a = evaluate(model, images, data.labels, batch_size=3)
        b = evaluate(model, images, data.labels, batch_size=10)
        assert a == b  # batch split cannot matter in eval mode
