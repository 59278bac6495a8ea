"""The finite-difference harness, and the full suite it drives.

run_suite is the package's own verification tool; here we verify the
verifier: it must report tiny errors for correct adjoints, and it must
*fail loudly* when an adjoint is deliberately wrong (a test fake swapped into
the suite).
"""

import numpy as np
import pytest

import lcanet.tensor as T
from lcanet import Architecture, build_model, gradcheck, max_entropy_loss
from lcanet.gradcheck import (
    COMPOSITE_TOL,
    N_SEEDS,
    OP_TOL,
    CheckResult,
    grad_check,
    run_suite,
)
from lcanet.rng import Rng
from lcanet.tensor import Tensor


def test_sum_of_squares_is_nearly_exact():
    x = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)

    def f(v):
        return T.tensor_sum(T.mul(v, v))

    assert grad_check(f, x) < 1e-9


def test_pool_relu_matmul_chain():
    rng = Rng(123)
    x = Tensor(rng.uniform_array((2, 4, 4, 1), -1, 1, dtype=np.float64),
               requires_grad=True)  # a [C, H, W, B] map
    w = Tensor(rng.uniform_array((8, 3), -1, 1, dtype=np.float64))

    def f(v):
        pooled = T.avgpool2d(v, 2, 2, stride=2)  # [2,2,2,1]
        flat = T.reshape(T.relu(pooled), (1, 8))
        return T.tensor_sum(T.matmul(flat, w))

    assert f(x).shape == ()
    assert grad_check(f, x) < 1e-6


def test_kink_margin_on_odd_pooled_extents():
    """A 10x10 tiny_cnn pools a 5x5 map; its last row and column are read
    by no window."""
    m = build_model(Architecture("tiny_cnn", (2, 3), (10, 10), 2, 3), rng=Rng(0),
                    dtype=np.float64)
    for p in m.parameters():
        if p.name.endswith("_bias"):
            p.data[...] = 0.1
    x = Tensor(Rng(1).uniform_array((2, 3, 10, 10), 0.0, 1.0, dtype=np.float64))
    margin = gradcheck._kink_margin(max_entropy_loss(m.forward(x), np.array([0, 2]), 0.1))
    assert np.isfinite(margin) and margin > 0


def test_kink_margin_reads_2x2_windows_on_a_pooled_extent_of_one():
    """A 3x3 map pools to 1x1 through the top-left 2x2 window only."""
    cells = np.array([[1.0, 0.5, 9.0], [0.25, 0.125, 9.0], [9.0, 9.0, 9.0]])
    x = Tensor(cells.reshape(1, 3, 3, 1), requires_grad=True)  # a [C, H, W, B] map
    loss = T.tensor_sum(T.relu(T.maxpool2d(x, 2, 2)))
    assert gradcheck._kink_margin(loss) == 0.5  # 1.0 down to 0.5; the relu's is 1.0


def test_multi_leaf_checking():
    rng = Rng(5)
    a = Tensor(rng.uniform_array((3, 2), -1, 1, dtype=np.float64))
    b = Tensor(rng.uniform_array((2, 4), -1, 1, dtype=np.float64))

    def f(x, y):
        return T.tensor_mean(T.matmul(x, y))

    assert grad_check(f, [a, b]) < 1e-8


def test_wrong_adjoint_is_caught():
    """A deliberately broken relu must blow past any reasonable tolerance."""

    def bad_relu(x):
        out = np.maximum(x.data, 0.0)
        # leaks half the gradient through the dead side
        return T._record(
            "bad_relu", out, (x,), lambda g: (np.where(x.data > 0, g, 0.5 * g),)
        )

    rng = Rng(7)
    x = Tensor(rng.uniform_array((4, 4), -1, 1, dtype=np.float64))

    def f(v):
        return T.tensor_sum(bad_relu(v))

    assert grad_check(f, x) > 1e-2


def test_eps_must_be_positive():
    x = Tensor(np.ones(2))
    with pytest.raises(ValueError):
        grad_check(lambda v: T.tensor_sum(v), x, eps=0.0)


def test_check_result_pass_semantics():
    assert CheckResult("x", 1e-7, OP_TOL).passed
    assert not CheckResult("x", 1e-5, OP_TOL).passed  # strict <
    assert not CheckResult("x", float("nan"), OP_TOL).passed
    assert not CheckResult("x", float("inf"), OP_TOL).passed


class TestSuite:
    def test_all_checks_pass_two_seeds(self):
        """Cheap smoke at 2 seeds; the full 10-seed run is in acceptance."""
        results = run_suite(seed=0, n_seeds=2)
        failures = [r for r in results if not r.passed]
        assert not failures, [f"{r.name}: {r.max_rel}" for r in failures]

    def test_suite_covers_every_op_and_the_composites(self):
        names = {r.name for r in run_suite(seed=0, n_seeds=1)}
        for required in [
            "matmul", "conv2d", "avgpool2d", "maxpool2d", "relu",
            "log_softmax", "elementwise", "bias_add", "shape_ops",
            "reductions", "lca_layer", "nll_loss", "entropy",
            "max_entropy_loss", "e2e_tiny_gap", "e2e_tiny_lca",
        ]:
            assert required in names, f"suite is missing {required}"

    def test_composites_get_looser_tolerance(self):
        by_name = {r.name: r for r in run_suite(seed=0, n_seeds=1)}
        assert by_name["matmul"].tol == OP_TOL
        assert by_name["lca_layer"].tol == COMPOSITE_TOL
        assert by_name["e2e_tiny_lca"].tol == COMPOSITE_TOL

    def test_mutation_fixture_fails_the_suite(self, monkeypatch):
        """A check over a wrong adjoint, swapped into the suite, comes out red."""

        def leaky_relu(v):
            # wrong on purpose: half the gradient leaks through the dead side
            return T._record("relu_mutated", np.fmax(v.data, 0), (v,),
                             lambda g: (np.where(v.data > 0, g, 0.5 * g),))

        def check_leaky_relu(rng):
            raw = rng.uniform_array((3, 7), -1.0, 1.0, dtype=np.float64)
            x = Tensor(np.sign(raw) * (0.01 + np.abs(raw)), requires_grad=True)
            return grad_check(lambda v: T.tensor_sum(leaky_relu(v)), x)

        monkeypatch.setattr(gradcheck, "_CHECKS",
                            [("relu", gradcheck._check_relu, OP_TOL),
                             ("relu_mutated", check_leaky_relu, OP_TOL)])
        results = run_suite(seed=0, n_seeds=1)
        assert [r.name for r in results] == ["relu", "relu_mutated"]
        assert results[0].passed
        assert not results[1].passed
        assert results[1].max_rel > 1e-2

    def test_default_seed_count_is_ten(self):
        assert N_SEEDS == 10

    def test_suite_is_deterministic(self):
        a = run_suite(seed=3, n_seeds=1)
        b = run_suite(seed=3, n_seeds=1)
        assert [(r.name, r.max_rel) for r in a] == [(r.name, r.max_rel) for r in b]
