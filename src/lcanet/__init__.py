"""lcanet: a small deterministic deep-learning library built around a
local-concepts pooling head and an entropy-regularized classification loss,
with a from-scratch reverse-mode autodiff engine underneath.
"""

import os
import platform
import sys

# OpenBLAS splits a long GEMM reduction by thread count, which changes the
# rounding: pin one BLAS thread, unless the program loaded numpy first.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if "numpy" not in sys.modules:
    os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))

# glibc's malloc moves its mmap threshold up as blocks are freed and hands
# the heap top back to the OS past its trim threshold, so whether a training
# step's temporaries fault in afresh each step depends on what was freed
# before. Fixed thresholds keep a step's working set in the heap: blocks of
# 4 MiB and more are mmapped, and the heap top is trimmed past 32 MiB. A
# program that sets either threshold in the environment keeps its own.
_MALLOC_VARS = ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_")
if platform.libc_ver()[0] == "glibc" and not any(v in os.environ for v in _MALLOC_VARS):
    import ctypes

    _M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # from glibc's <malloc.h>
    _mallopt = ctypes.CDLL(None).mallopt
    _mallopt.argtypes, _mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    _mallopt(_M_MMAP_THRESHOLD, 4 << 20)
    _mallopt(_M_TRIM_THRESHOLD, 32 << 20)

from .config import ConfigError, RunConfig, load_config, parse_config
from .data import (
    AugmentConfig,
    DataError,
    Dataset,
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
from .lca import concept_count, concept_vectors, enumerate_kernels, lca_forward
from .losses import entropy, loss_terms, max_entropy_loss, nll_loss
from .model import (
    Architecture,
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
