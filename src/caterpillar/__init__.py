"""Shift-based local mixing, sparse-MLP global mixing, and the model family
built from them, with verification and accounting harnesses."""

from .blocks import COMBINE_STRATEGIES, LOCAL_MIXERS, BlockConfig, MixerBlock
from .data import LabeledImages, load_cifar10_binary, load_idx, load_raw_blob, synth_blobs
from .errors import CaterpillarError, StateError
from .layers import (
    FFN,
    GELU,
    BatchNorm2d,
    Conv2d,
    DWConv2d,
    Identity,
    LayerNorm,
    Linear,
    Module,
    Parameter,
    ReLU,
    finite_diff_check,
)
from .models import (
    CaterpillarModel,
    ModelSpec,
    ResnetSpec,
    ResNetModel,
    adapt_small_images,
    build_model,
    caterpillar_param_formula,
    count_params,
    estimate_flops,
    load_checkpoint,
    local_mixer_param_count,
    parse_model_spec,
    save_checkpoint,
)
from .smlp import Smlp, smlp_param_count
from .spc import DIRECTION_PRESETS, MIXING_WAYS, PADDING_MODES, Spc, SpcConfig, spc_param_count
from .tensor import Rng, max_rel_error
from .train import AdamW, TrainConfig, adamw_step, ce_label_smoothing, cosine_lr, evaluate, train_loop

__version__ = "0.1.0"
