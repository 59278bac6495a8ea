"""lcanet: a small deterministic deep-learning library built around a
local-concepts pooling head and an entropy-regularized classification loss,
with a from-scratch reverse-mode autodiff engine underneath.
"""

from .config import ConfigError, RunConfig, load_config, parse_config
from .data import (
    AugmentConfig,
    DataError,
    Dataset,
    SampleBatch,
    augment,
    batches,
    load_feature_file,
    load_image_dir,
    read_ppm,
    synth_glyphs,
    write_feature_file,
    write_ppm,
)
from .gradcheck import CheckResult, grad_check, run_suite
from .lca import (
    EmptyKernelError,
    LcaConfig,
    concept_count,
    concept_vectors,
    enumerate_kernels,
    lca_forward,
)
from .losses import LossConfig, entropy, loss_terms, max_entropy_loss, nll_loss
from .model import (
    BackboneConfig,
    CheckpointError,
    Model,
    build_model,
    load_checkpoint,
    save_checkpoint,
)
from .optim import SGD
from .rng import Rng
from .tensor import (
    ContractError,
    NumericsError,
    Parameter,
    ShapeError,
    Tensor,
    add,
    avgpool2d,
    backward,
    conv2d,
    log_softmax,
    matmul,
    maxpool2d,
    mul,
    no_grad,
    relu,
    reshape,
    scale,
    set_debug_checks,
    sub,
    transpose,
)
from .train import CSV_HEADER, EvalResult, TrainSummary, evaluate, run_training

__version__ = "0.1.0"
