"""Seeded generated guards: random-shape gradient checks of the windowed
ops, malformed-input probes of every file and config parser, and malformed
arguments to the LCAF writer.

Cases come from ``np.random.default_rng`` with fixed seeds, so every run
draws the same shapes and bytes. A gradient case passes below 1e-6 relative
error; a parser probe may succeed or raise its documented error class, and
nothing else; a writer probe may write or raise ``DataError``, and leaves no
temp file either way.
"""

import os

import numpy as np
import pytest

import lcanet.tensor as T
from lcanet import (
    Architecture,
    CheckpointError,
    ConfigError,
    DataError,
    Rng,
    batches,
    build_model,
    grad_check,
    lca_forward,
    load_checkpoint,
    load_config,
    load_feature_file,
    read_ppm,
    save_checkpoint,
    write_feature_file,
    write_ppm,
)
from lcanet.config import _KEYS
from lcanet.tensor import ShapeError, Tensor

TOL = 1e-6


def leaf(gen, shape):
    return Tensor(gen.uniform(-1.0, 1.0, shape), requires_grad=True)


def tie_free(gen, shape):
    """Distinct values with gaps far above the finite-difference step."""
    n = int(np.prod(shape))
    return Tensor((gen.permutation(n) / n).reshape(shape), requires_grad=True)


def probe_loss(f, gen):
    """A fixed random linear functional of ``f()``: every output coordinate counts."""
    r = Tensor(gen.uniform(-1.0, 1.0, f().shape))
    return lambda *_: T.tensor_sum(T.mul(f(), r))


# ---------------------------------------------------------------------------
# adjoints
# ---------------------------------------------------------------------------


def test_conv2d_random_shapes():
    gen = np.random.default_rng(101)
    for case in range(100):
        stride, pad = int(gen.integers(1, 4)), int(gen.integers(0, 3))
        kh, kw = int(gen.integers(1, 4)), int(gen.integers(1, 4))
        b, cin, cout = int(gen.integers(1, 4)), int(gen.integers(1, 4)), int(gen.integers(1, 4))
        h = int(gen.integers(max(1, kh - 2 * pad), 7))
        w = int(gen.integers(max(1, kw - 2 * pad), 7))
        # The spatial ops take [C, H, W, B] maps.
        x, k, bias = leaf(gen, (cin, h, w, b)), leaf(gen, (cout, cin, kh, kw)), leaf(gen, (cout,))
        loss = probe_loss(lambda: T.conv2d(x, k, bias, stride, pad), gen)
        err = grad_check(loss, [x, k, bias])
        assert err < TOL, (case, x.shape, k.shape, stride, pad, err)


def test_maxpool2d_random_shapes():
    gen = np.random.default_rng(102)
    for case in range(100):
        k = int(gen.integers(1, 4))
        stride = max(1, k + int(gen.integers(-1, 2)))  # below, equal to or above k
        h, w = int(gen.integers(k, 8)), int(gen.integers(k, 8))  # ragged edges included
        c, b = int(gen.integers(1, 3)), int(gen.integers(1, 3))
        x = tie_free(gen, (c, h, w, b))
        loss = probe_loss(lambda: T.maxpool2d(x, k, stride), gen)
        err = grad_check(loss, x)
        assert err < TOL, (case, x.shape, k, stride, err)


def test_lca_forward_random_shapes():
    gen = np.random.default_rng(103)
    checked = 0
    for case in range(100):
        h, w = int(gen.integers(1, 6)), int(gen.integers(1, 6))
        b, c, d = int(gen.integers(1, 3)), int(gen.integers(1, 4)), int(gen.integers(1, 4))
        fm, fw, fb = leaf(gen, (b, c, h, w)), leaf(gen, (d, c)), leaf(gen, (d,))
        try:
            loss = probe_loss(lambda: lca_forward(fm, fw, fb), gen)
        except ShapeError:  # a 1x1 map admits no kernel
            continue
        err = grad_check(loss, [fm, fw, fb])
        assert err < TOL, (case, fm.shape, d, err)
        checked += 1
    assert checked >= 80


# ---------------------------------------------------------------------------
# parsers
# ---------------------------------------------------------------------------


def parses_or_refuses(load, path, error, names_file=True):
    """``load(path)`` either succeeds and returns True, or raises ``error`` and
    returns False; anything else fails. A file format's refusal must start
    with ``f"{path}: "`` (config refusals name a line instead)."""
    try:
        load(path)
    except error as exc:
        assert not names_file or str(exc).startswith(f"{path}: "), exc
        return False
    return True


def mutations(gen, blob, n):
    """``n`` copies of ``blob``, each with one to three random bytes replaced."""
    for _ in range(n):
        out = bytearray(blob)
        for pos in gen.integers(0, len(out), int(gen.integers(1, 4))):
            out[pos] = int(gen.integers(0, 256))
        yield bytes(out)


LOADERS = {
    "checkpoint": (load_checkpoint, CheckpointError),
    "lcaf": (load_feature_file, DataError),
    "ppm": (read_ppm, DataError),
}


def valid_blob(kind, tmp_path):
    """The bytes of a small valid checkpoint, LCAF or PPM file."""
    path = tmp_path / f"ok.{kind}"
    if kind == "checkpoint":
        model = build_model(Architecture("external_features", (2,), (3, 3), 2, 2), rng=Rng(0))
        vel = {p.name: np.full(p.shape, 0.5, np.float32) for p in model.parameters()}
        save_checkpoint(model, path, velocities=vel, epoch=3, rng_state=Rng(1).state_bytes())
    elif kind == "lcaf":
        write_feature_file(path, np.ones((3, 2, 2, 2), np.float32), [0, 1, 1])
    else:
        write_ppm(path, np.arange(18, dtype=np.uint8).reshape(2, 3, 3))
    return path.read_bytes()


@pytest.mark.parametrize("kind", ["checkpoint", "lcaf", "ppm"])
def test_every_truncation_is_refused(tmp_path, kind):
    blob, (load, error) = valid_blob(kind, tmp_path), LOADERS[kind]
    path = tmp_path / "cut"
    for n in range(len(blob)):
        path.write_bytes(blob[:n])
        assert not parses_or_refuses(load, path, error), n


@pytest.mark.parametrize("kind", ["checkpoint", "lcaf", "ppm"])
def test_byte_mutations_raise_only_the_documented_error(tmp_path, kind):
    blob, (load, error) = valid_blob(kind, tmp_path), LOADERS[kind]
    gen = np.random.default_rng(201)
    path = tmp_path / "mutant"
    for mutant in mutations(gen, blob, 500):
        path.write_bytes(mutant)
        parses_or_refuses(load, path, error)


@pytest.mark.parametrize("kind,head", [
    ("checkpoint", b"LCAC\x01\x00\x00\x00"),
    ("lcaf", b"LCAF\x01\x00\x00\x00"),
    ("ppm", b"P6\n"),
])
def test_random_bytes_raise_only_the_documented_error(tmp_path, kind, head):
    load, error = LOADERS[kind]
    gen = np.random.default_rng(202)
    path = tmp_path / "noise"
    for case in range(300):
        body = gen.integers(0, 256, int(gen.integers(0, 64)), dtype=np.uint8).tobytes()
        path.write_bytes((head if case % 2 else b"") + body)
        parses_or_refuses(load, path, error)


def test_ppm_header_values_raise_only_data_error(tmp_path):
    gen = np.random.default_rng(203)
    tokens = ["0", "1", "2", "3", "255", "256", "-1", "65536", "4294967296", "x", "1e3", ""]
    path = tmp_path / "img.ppm"
    for _ in range(300):
        w, h, maxval = (tokens[int(i)] for i in gen.integers(0, len(tokens), 3))
        payload = bytes(int(gen.integers(0, 40)))
        path.write_bytes(f"P6\n{w} {h}\n{maxval}\n".encode() + payload)
        parses_or_refuses(read_ppm, path, DataError)


def test_config_key_values_raise_only_config_error(tmp_path):
    gen = np.random.default_rng(204)
    keys = sorted(_KEYS) + ["lr_step", "aug", "", "=", "data.train.x"]
    values = ["0", "1", "-1", "2", "0.5", "-0.5", "1e400", "nan", "inf", "-inf", "true", "no",
              "maybe", "3x4", "0x4", "4x", "x", "1,2", "1,", ",", "16,32,64", "lcaf", "ppm",
              "tiny_cnn", "external_features", "gap", "lca", str(2**63), str(2**64), "", "é"]
    path = tmp_path / "run.cfg"
    for _ in range(300):
        lines = [f"{keys[int(gen.integers(0, len(keys)))]} = "
                 f"{values[int(gen.integers(0, len(values)))]}"
                 for _ in range(int(gen.integers(1, 4)))]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        parses_or_refuses(load_config, path, ConfigError, names_file=False)


def test_config_random_bytes_raise_only_config_error(tmp_path):
    gen = np.random.default_rng(205)
    path = tmp_path / "noise.cfg"
    for _ in range(300):
        path.write_bytes(gen.integers(0, 256, int(gen.integers(0, 64)), dtype=np.uint8).tobytes())
        parses_or_refuses(load_config, path, ConfigError, names_file=False)


# ---------------------------------------------------------------------------
# the LCAF writer
# ---------------------------------------------------------------------------

# One dtype of each numpy kind: bool, signed, unsigned, float, complex,
# bytes, str, object, datetime, timedelta and void.
KIND_DTYPES = ["?", "i2", "u1", "f8", "c8", "S2", "U2", "O", "M8[s]", "m8[s]", "V4"]
LABEL_VALUES = [0, 1, 2**32 - 1, -1, 2**32, 2**70, 0.5, 1.0, float("nan"), float("inf"), "a"]
MAP_VALUES = [float("nan"), float("inf"), -float("inf"), 1e39]


def writer_args(gen):
    """Seeded ``write_feature_file`` arguments with at most one fault: a
    rank other than 4, maps of any dtype kind, ragged maps, a label count
    off by one, ragged labels, label values drawn from integers in and out
    of range, fractions, NaN, inf and a string, a zero C, H or W, or one map
    cell of NaN, inf or a float64 beyond the float32 range."""
    # N may be 0; C, H and W start at 1 unless the fault zeroes one of them.
    shape = [int(v) for v in gen.integers([0, 1, 1, 1], 3)]
    labels = [int(v) for v in gen.integers(0, 4, shape[0])]
    fault = int(gen.integers(0, 9))
    if fault == 1:
        shape = [int(v) for v in gen.integers(1, 3, int(gen.choice([0, 1, 2, 3, 5])))]
    elif fault == 7:
        shape[int(gen.integers(1, 4))] = 0
    feats = gen.uniform(-2, 2, shape).astype(np.float32)
    if fault == 2:
        feats = np.zeros(shape, KIND_DTYPES[int(gen.integers(0, len(KIND_DTYPES)))])
    elif fault == 3:
        feats = [[[[0.0]]], [[[0.0], [1.0]]]]
    elif fault == 4:
        labels = labels[1:] if labels and gen.random() < 0.5 else labels + [0]
    elif fault == 5:
        labels = [[0, 1], 2]
    elif fault == 6:
        labels = [LABEL_VALUES[int(i)] for i in gen.integers(0, len(LABEL_VALUES), len(labels))]
    elif fault == 8 and feats.size:  # N = 0 leaves no cell to spoil
        feats = feats.astype(np.float64)
        feats.flat[int(gen.integers(0, feats.size))] = MAP_VALUES[int(gen.integers(0, 4))]
    return feats, labels


def writes_or_refuses(path, feats, labels):
    """True when the file was written and loads and batches with those
    labels and maps, False on a ``DataError`` starting with ``f"{path}: "``
    that leaves no file; no ``<path>.tmp`` is left either way."""
    if os.path.exists(path):
        os.remove(path)
    try:
        write_feature_file(path, feats, labels)
    except DataError as exc:
        assert str(exc).startswith(f"{path}: "), exc
        assert not os.path.exists(path)
        written = False
    else:
        loaded = load_feature_file(path)
        assert loaded.labels.tolist() == labels
        assert loaded.inputs[:].tobytes() == np.asarray(feats, "<f4").tobytes()
        assert sum(len(b.labels) for b in batches(loaded, 2)) == len(labels)
        written = True
    assert not os.path.exists(f"{path}.tmp")
    return written


def test_lcaf_writer_arguments_raise_only_data_error(tmp_path):
    gen = np.random.default_rng(206)
    path = tmp_path / "f.lcaf"
    written = [writes_or_refuses(path, *writer_args(gen)) for _ in range(300)]
    assert 30 < sum(written) < 270, sum(written)
