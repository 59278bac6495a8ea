"""NLL, prediction entropy, and the entropy-regularized combination."""

import math

import numpy as np
import pytest

from lcanet import Rng, entropy, loss_terms, max_entropy_loss, nll_loss
from lcanet.gradcheck import grad_check
from lcanet.tensor import Node, Tensor, backward, log_softmax


def logp_of(probs) -> Tensor:
    p = np.asarray(probs, dtype=np.float64)
    with np.errstate(divide="ignore"):
        return Tensor(np.log(p))


def targets(*ts):
    return np.asarray(ts, dtype=np.int64)


# ---------------------------------------------------------------------------
# nll_loss
# ---------------------------------------------------------------------------


def test_nll_uniform_is_ln_k():
    lp = logp_of([[0.25] * 4])
    for t in range(4):
        assert abs(nll_loss(lp, targets(t)).item() - math.log(4)) < 1e-12


def test_nll_confident_correct_goes_to_zero():
    p = 1.0 - 1e-6
    lp = logp_of([[p, 1.0 - p]])
    assert nll_loss(lp, targets(0)).item() < 2e-6


def test_nll_confident_wrong_blows_up():
    lp = logp_of([[1.0 - 1e-6, 1e-6]])
    assert nll_loss(lp, targets(1)).item() > math.log(1e5)


def test_nll_two_row_average():
    # (ln 2 + ln(4/3)) / 2
    lp = logp_of([[0.5, 0.5], [0.25, 0.75]])
    expected = (math.log(2) + math.log(4 / 3)) / 2
    assert abs(expected - 0.490415) < 5e-7
    assert abs(nll_loss(lp, targets(0, 1)).item() - expected) < 1e-12


def test_nll_target_out_of_range():
    lp = logp_of([[0.5, 0.5]])
    with pytest.raises(IndexError):
        nll_loss(lp, targets(2))
    with pytest.raises(IndexError):
        nll_loss(lp, targets(-1))


def test_nll_gradient():
    rng = Rng(0)
    x = Tensor(rng.uniform_array((4, 5), -2, 2, dtype=np.float64))
    ts = targets(0, 3, 1, 4)
    assert grad_check(lambda v: nll_loss(log_softmax(v), ts), x) < 1e-6


# ---------------------------------------------------------------------------
# entropy
# ---------------------------------------------------------------------------


def test_entropy_uniform_is_ln_k():
    assert abs(entropy(logp_of([[0.25] * 4])).item() - math.log(4)) < 1e-9


def test_entropy_one_hot_is_zero():
    # 0*log 0 must count as 0, not NaN
    assert entropy(logp_of([[1.0, 0.0, 0.0]])).item() == 0.0


def test_entropy_half_half():
    assert abs(entropy(logp_of([[0.5, 0.5, 0.0, 0.0]])).item() - math.log(2)) < 1e-12


def test_entropy_batch_mean():
    lp = logp_of([[0.25] * 4, [1.0, 0.0, 0.0, 0.0]])
    assert abs(entropy(lp).item() - math.log(4) / 2) < 1e-12


def test_entropy_bounds_on_random_distributions():
    """0 <= H <= ln K over 1000 random distributions."""
    rng = Rng(1)
    for _ in range(1000):
        k = 2 + rng.randint(7)
        raw = rng.uniform_array((1, k), 0.0, 1.0, dtype=np.float64) + 1e-9
        p = raw / raw.sum()
        h = entropy(Tensor(np.log(p))).item()
        assert -1e-12 <= h <= math.log(k) + 1e-12


def test_entropy_gradient():
    rng = Rng(2)
    x = Tensor(rng.uniform_array((3, 6), -2, 2, dtype=np.float64))
    assert grad_check(lambda v: entropy(log_softmax(v)), x) < 1e-6


# ---------------------------------------------------------------------------
# max_entropy_loss
# ---------------------------------------------------------------------------


def test_lambda_zero_is_exactly_nll():
    rng = Rng(3)
    logits = rng.uniform_array((5, 7), -3, 3, dtype=np.float64)
    ts = targets(*(Rng(4).randint(7) for _ in range(5)))
    combined = max_entropy_loss(Tensor(logits), ts, 0.0).item()
    plain = nll_loss(log_softmax(Tensor(logits)), ts).item()
    assert abs(combined - plain) <= 1e-12


@pytest.mark.parametrize("lam", [0.0, 0.1])
def test_loss_terms_match_the_separate_losses_bit_for_bit(lam):
    rng = Rng(6)
    logits = Tensor(rng.uniform_array((5, 7), -3, 3, dtype=np.float32))
    ts = targets(*(rng.randint(7) for _ in range(5)))
    loss, nll, ent = loss_terms(logits, ts, lam)
    logp = log_softmax(logits)
    assert nll.data.tobytes() == nll_loss(logp, ts).data.tobytes()
    assert ent.data.tobytes() == entropy(logp).data.tobytes()
    assert loss.data.tobytes() == max_entropy_loss(logits, ts, lam).data.tobytes()
    if lam == 0.0:
        assert loss is nll


def test_uniform_logits_closed_form():
    # ln 4 - 0.1 * ln 4 = 1.247665...
    logits = Tensor(np.zeros((1, 4)))
    got = max_entropy_loss(logits, targets(2), 0.1).item()
    assert abs(got - 0.9 * math.log(4)) < 1e-12
    assert abs(got - 1.247665) < 5e-7


def test_monotone_in_lambda_when_entropy_positive():
    rng = Rng(5)
    logits = Tensor(rng.uniform_array((4, 6), -1, 1, dtype=np.float64))
    ts = targets(0, 1, 2, 3)
    values = [
        max_entropy_loss(logits, ts, lam).item()
        for lam in (0.0, 0.05, 0.1, 0.5, 1.0)
    ]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_entropy_term_gradient_vanishes_at_uniform():
    """Entropy is stationary at the uniform distribution."""
    logits = Tensor(np.zeros((2, 5)), requires_grad=True)
    backward(entropy(log_softmax(logits)))
    assert np.linalg.norm(logits.grad) < 1e-10


def test_combined_gradient_many_seeds():
    for seed in range(10):
        rng = Rng(seed)
        x = Tensor(rng.uniform_array((3, 5), -2, 2, dtype=np.float64))
        ts = targets(*(rng.randint(5) for _ in range(3)))
        err = grad_check(lambda v: max_entropy_loss(v, ts, 0.1), x)
        assert err < 1e-6, (seed, err)


def test_loss_config_validation():
    """λ, the loss's one setting, must be finite and >= 0."""
    logits = Tensor(np.zeros((1, 3)))
    for lam in (-0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            loss_terms(logits, targets(0), lam)
        with pytest.raises(ValueError):
            max_entropy_loss(logits, targets(0), lam)


def test_lambda_zero_records_no_entropy_op():
    """The identity at λ=0 is structural: the entropy term is never built."""
    logits = Tensor(np.zeros((1, 3)), requires_grad=True)
    loss = max_entropy_loss(logits, targets(0), 0.0)
    seen = set()
    stack = [loss.node]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        assert node.op != "entropy"
        stack.extend(p for p in node.parents if isinstance(p, Node))
