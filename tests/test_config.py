"""Flat key=value config parsing: defaults, coercions, and hard errors."""

import pytest

from lcanet.config import ConfigError, RunConfig, load_config, parse_config


def test_empty_config_is_all_defaults():
    cfg = parse_config("")
    assert cfg == RunConfig()


def test_defaults():
    cfg = parse_config("")
    assert cfg.seed == 0
    assert cfg.epochs == 30
    assert cfg.batch_size == 32
    assert cfg.lr == 0.01
    assert cfg.momentum == 0.9
    assert cfg.weight_decay == 0.0
    assert cfg.lambda_entropy == 0.1
    assert cfg.head == "lca"
    assert cfg.lca_embed_dim == 32
    assert cfg.lca_include_one_by_k is True
    assert cfg.backbone == "tiny_cnn"
    assert cfg.input_size == (16, 16)
    assert cfg.channels == (16, 32)
    assert cfg.freeze_backbone is False
    assert cfg.data_format == "ppm"
    assert cfg.aug_translate_px == 0 and cfg.aug_hflip is False


def test_every_documented_key_parses():
    text = """
    seed = 7
    epochs = 3
    batch_size = 16
    lr = 0.05
    momentum = 0.8
    weight_decay = 1e-4
    lr_step_epoch = 2
    lr_step_factor = 0.5
    lambda_entropy = 0.2
    head = gap
    lca.embed_dim = 12
    lca.include_one_by_k = false
    backbone = external_features
    input_size = 8x10
    channels = 24
    train.freeze_backbone = yes
    data.train = data/train
    data.test = data/test
    data.format = lcaf
    aug.translate_px = 2
    aug.brightness = 0.1
    aug.noise_sigma = 0.02
    aug.hflip = true
    ckpt.out = out/model.lcac
    log.csv = out/metrics.csv
    """
    cfg = parse_config(text)
    assert cfg.seed == 7 and cfg.epochs == 3 and cfg.batch_size == 16
    assert cfg.lr == 0.05 and cfg.momentum == 0.8 and cfg.weight_decay == 1e-4
    assert cfg.head == "gap" and cfg.lca_embed_dim == 12
    assert cfg.lca_include_one_by_k is False
    assert cfg.backbone == "external_features"
    assert cfg.input_size == (8, 10)
    assert cfg.channels == (24,)
    assert cfg.freeze_backbone is True
    assert cfg.data_train == "data/train" and cfg.data_test == "data/test"
    assert cfg.data_format == "lcaf"
    assert cfg.aug_translate_px == 2 and cfg.aug_brightness == 0.1
    assert cfg.aug_noise_sigma == 0.02 and cfg.aug_hflip is True
    assert cfg.ckpt_out == "out/model.lcac" and cfg.log_csv == "out/metrics.csv"


def test_comments_and_blank_lines():
    cfg = parse_config(
        "# full-line comment\n"
        "\n"
        "seed = 3  # trailing comment\n"
        "   # indented comment\n"
    )
    assert cfg.seed == 3


def test_hash_inside_value_is_kept_without_whitespace():
    cfg = parse_config("data.train = runs/exp#4/train\n")
    assert cfg.data_train == "runs/exp#4/train"


def test_square_input_size_shorthand():
    assert parse_config("input_size = 20").input_size == (20, 20)


def test_channel_list():
    assert parse_config("channels = 8, 12").channels == (8, 12)


def test_unknown_key_is_an_error_with_line_number():
    with pytest.raises(ConfigError) as exc:
        parse_config("epochs = 3\nlerning_rate = 0.1\n")
    msg = str(exc.value)
    assert "line 2" in msg and "lerning_rate" in msg


def test_duplicate_key_is_an_error():
    with pytest.raises(ConfigError) as exc:
        parse_config("seed = 1\nseed = 2\n")
    assert "duplicate" in str(exc.value)


def test_missing_equals_sign():
    with pytest.raises(ConfigError):
        parse_config("seed 3\n")


@pytest.mark.parametrize(
    "line",
    [
        "epochs = three",
        "lr = nan",
        "lr = inf",
        "momentum = maybe",
        "aug.hflip = 2",
        "input_size = 4x4x4",
        "channels = 16,x",
    ],
)
def test_bad_values(line):
    with pytest.raises(ConfigError):
        parse_config(line + "\n")


@pytest.mark.parametrize(
    "line,key",
    [
        ("epochs = 0", "epochs"),
        ("batch_size = 0", "batch_size"),
        ("lr = -0.1", "lr"),
        ("momentum = 1.0", "momentum"),
        ("weight_decay = -1", "weight_decay"),
        ("lr_step_epoch = -3", "lr_step_epoch"),
        ("lambda_entropy = -0.5", "lambda_entropy"),
        ("head = attention", "head"),
        ("lca.embed_dim = 0", "lca.embed_dim"),
        ("backbone = resnext", "backbone"),
        ("input_size = 0x4", "input_size"),
        ("channels = 0", "channels"),
        ("data.format = png", "data.format"),
        ("aug.brightness = 1.5", "aug.brightness"),
        ("aug.noise_sigma = -0.1", "aug.noise_sigma"),
    ],
)
def test_semantic_validation_names_the_key(line, key):
    with pytest.raises(ConfigError) as exc:
        parse_config(line + "\n")
    assert key in str(exc.value)


def test_schedule_property():
    assert parse_config("lr_step_epoch = 20\nlr_step_factor = 0.1\n").schedule == (
        (20, 0.1),
    )
    assert parse_config("lr_step_epoch = 0\n").schedule == ()


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "nope.cfg")


def test_load_config_roundtrip(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("seed = 11\nepochs = 2\n", encoding="utf-8")
    cfg = load_config(path)
    assert cfg.seed == 11 and cfg.epochs == 2
