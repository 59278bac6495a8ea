"""SGD with classical momentum: hand recurrences, and the lr step that
``run_training`` applies per epoch, read back from the metrics CSV."""

import numpy as np
import pytest

from lcanet import write_feature_file
from lcanet.config import parse_config
from lcanet.optim import SGD
from lcanet.tensor import ContractError, Parameter
from lcanet.train import run_training


def param(value, name="theta", dtype=np.float64):
    return Parameter(name, np.asarray(value, dtype=dtype))


def test_two_step_hand_recurrence():
    # mu=0.9, lr=0.1, g=1 each step:
    #   step1: v=1,   theta=0.9
    #   step2: v=1.9, theta=0.71
    p = param([1.0])
    opt = SGD([p], lr=0.1, momentum=0.9)
    p.grad[...] = 1.0
    opt.step()
    np.testing.assert_allclose(opt.velocity["theta"], [1.0])
    np.testing.assert_allclose(p.data, [0.9])
    p.grad[...] = 1.0
    opt.step()
    np.testing.assert_allclose(opt.velocity["theta"], [1.9])
    np.testing.assert_allclose(p.data, [0.71])


def test_zero_momentum_is_plain_sgd():
    p = param([2.0, -3.0])
    opt = SGD([p], lr=0.5)
    p.grad[...] = np.array([1.0, 2.0])
    opt.step()
    np.testing.assert_array_equal(p.data, [1.5, -4.0])


def test_quadratic_step_scales_theta_exactly():
    """On 0.5*||theta||^2 the gradient is theta, so one mu=0 step multiplies
    theta by (1 - lr), bit-for-bit."""
    theta0 = np.array([1.0, -2.0, 0.125, 7.5])
    p = param(theta0.copy())
    expected = theta0 - np.asarray(0.25, dtype=p.dtype) * theta0
    opt = SGD([p], lr=0.25)
    p.grad[...] = p.data
    opt.step()
    assert p.data.tobytes() == expected.tobytes()


def test_velocity_decays_geometrically_without_gradient():
    """Seed velocity with one gradient pulse, then coast: total displacement
    after n steps is lr * v0 * (1 - mu^n) / (1 - mu)."""
    mu, lr, v0, n = 0.8, 0.1, 3.0, 25
    p = param([10.0])
    opt = SGD([p], lr=lr, momentum=mu)
    p.grad[...] = v0  # pulse: first step establishes v = v0
    opt.step()
    for _ in range(n - 1):
        opt.step()  # grad stays zero; step() zeroes it each time
    moved = 10.0 - p.data[0]
    closed_form = lr * v0 * (1 - mu**n) / (1 - mu)
    np.testing.assert_allclose(moved, closed_form, rtol=1e-12)


def test_grads_zeroed_after_step():
    p = param([1.0, 2.0])
    opt = SGD([p], lr=0.1)
    p.grad[...] = 5.0
    opt.step()
    assert not p.grad.any()


def test_decoupled_weight_decay_applies_after_momentum_update():
    p = param([1.0])
    opt = SGD([p], lr=0.1, weight_decay=0.01)
    p.grad[...] = 1.0
    opt.step()
    after_sgd = 1.0 - 0.1 * 1.0
    np.testing.assert_allclose(p.data, [after_sgd - 0.1 * 0.01 * after_sgd])


def test_multiple_params_keep_separate_velocities():
    a, b = param([1.0], "a"), param([1.0], "b")
    opt = SGD([a, b], lr=0.1, momentum=0.9)
    a.grad[...] = 1.0  # b's grad stays zero
    opt.step()
    np.testing.assert_allclose(a.data, [0.9])
    np.testing.assert_array_equal(b.data, [1.0])
    assert not opt.velocity["b"].any()


def lr_column(tmp_path, epochs, lr="0.01", step_epoch=20, factor="0.1", resume=False):
    """The CSV ``lr`` column of a small feature-map run in ``tmp_path``."""
    feats = tmp_path / "feats.lcaf"
    if not feats.exists():
        write_feature_file(feats, np.ones((4, 2, 2, 2), np.float32), [0, 1, 0, 1])
    ckpt, csv = tmp_path / "model.lcac", tmp_path / "log.csv"
    cfg = parse_config(
        f"epochs = {epochs}\nbatch_size = 4\nlr = {lr}\nlr_step_epoch = {step_epoch}\n"
        f"lr_step_factor = {factor}\nbackbone = external_features\nchannels = 2\n"
        f"head = gap\ndata.format = lcaf\ndata.train = {feats}\ndata.test = {feats}\n"
        f"ckpt.out = {ckpt}\nlog.csv = {csv}\n"
    )
    run_training(cfg, resume=str(ckpt) if resume else None)
    return [row.split(",")[6] for row in csv.read_text().splitlines()[1:]]


class TestSchedule:
    def test_before_boundary_lr_is_base(self, tmp_path):
        assert lr_column(tmp_path, epochs=2, step_epoch=2) == ["0.01", "0.01"]

    def test_at_boundary_factor_applies(self, tmp_path):
        assert lr_column(tmp_path, epochs=3, step_epoch=2)[2] == "0.001"

    def test_empty_schedule_constant(self, tmp_path):
        assert lr_column(tmp_path, epochs=3, step_epoch=0) == ["0.01"] * 3

    def test_factor_does_not_compound(self, tmp_path):
        got = lr_column(tmp_path, epochs=5, lr="1.0", step_epoch=2, factor="0.5")
        assert got == ["1", "1", "0.5", "0.5", "0.5"]

    def test_schedule_is_stateless_in_epoch(self, tmp_path):
        """A run resumed past the step starts at lr * factor, not at lr."""
        lr_column(tmp_path, epochs=3, step_epoch=2)
        got = lr_column(tmp_path, epochs=5, step_epoch=2, resume=True)
        assert got == ["0.01", "0.01", "0.001", "0.001", "0.001"]


class TestValidation:
    def test_lr_must_be_positive(self):
        with pytest.raises(ValueError):
            SGD([param([0.0])], lr=0.0)

    @pytest.mark.parametrize("kwargs", [
        {"lr": float("nan")}, {"lr": float("inf")},
        {"lr": 0.1, "weight_decay": -1.0}, {"lr": 0.1, "weight_decay": float("nan")},
        {"lr": 0.1, "weight_decay": float("inf")},
    ], ids=["lr_nan", "lr_inf", "wd_negative", "wd_nan", "wd_inf"])
    def test_lr_and_weight_decay_must_be_finite(self, kwargs):
        """The values config refuses for lr and weight_decay: a NaN lr would
        turn every weight into NaN one step later."""
        with pytest.raises(ValueError):
            SGD([param([0.0])], **kwargs)

    def test_momentum_range(self):
        with pytest.raises(ValueError):
            SGD([param([0.0])], lr=0.1, momentum=1.0)
        with pytest.raises(ValueError):
            SGD([param([0.0])], lr=0.1, momentum=-0.1)

    def test_duplicate_names_rejected(self):
        with pytest.raises(ContractError):
            SGD([param([0.0], "w"), param([1.0], "w")], lr=0.1)

    def test_velocity_shape_drift_detected(self):
        p = param([1.0, 2.0])
        opt = SGD([p], lr=0.1)
        opt.velocity["theta"] = np.zeros(3)
        with pytest.raises(ContractError):
            opt.step()
