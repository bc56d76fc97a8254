"""The benchmark's MAC check on one training step of two small models.

`perfbench/layertrace.Tracer` credits the MACs of every traced forward call
to the layer that makes them; over a step they must add up to the model's
`estimate_flops`.  A layer whose MACs move off a leaf forward fails here,
without a benchmark run.
"""

import importlib.util
import pathlib

import numpy as np
import pytest

from caterpillar import (
    BlockConfig,
    ModelSpec,
    ResnetSpec,
    TrainConfig,
    build_model,
    synth_blobs,
    train_loop,
)

LAYERTRACE = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "layertrace.py"

SPECS = {
    "resnet18-spc": ResnetSpec(n_c=4, local_mixer="spc", num_classes=4, input=(16, 16, 3)),
    "micro": ModelSpec(
        variant="custom", base_width=16, depths=(1, 1, 1, 1), patch_size=1,
        input=(16, 16, 3), num_classes=8, block=BlockConfig(ffn_ratio=2),
    ),
}


def load_layertrace():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", sorted(SPECS))
def test_training_step_macs_reconcile(name):
    spec = SPECS[name]
    model = build_model(spec, seed=0).astype(np.float32)
    data = synth_blobs(0, 8, *spec.input, spec.num_classes)
    tracer = load_layertrace().Tracer(model)
    tracer.attach()
    try:
        train_loop(model, data.images.astype(np.float32), data.labels,
                   TrainConfig(total_steps=1, batch_size=8))
    finally:
        tracer.detach()
    assert tracer.ops == 1 and sum(tracer.calls.values()) > 0
    assert tracer.macs_reconciled(), tracer.mac_checks
