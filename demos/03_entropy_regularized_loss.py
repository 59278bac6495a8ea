"""The maximum-entropy training objective: NLL minus a confidence tax.

The combined loss is nll - lambda * entropy. Subtracting entropy rewards
keeping the predictive distribution spread out, which fights the tendency
of small fine-grained datasets to produce overconfident, brittle models.
This script shows the two terms separately and what the regularizer does
to the gradient.
"""

import numpy as np

from lcanet import losses, tensor as T
from lcanet.rng import Rng
from lcanet.tensor import Tensor, backward

K = 4
rng = Rng(0)
logits = Tensor(rng.uniform_array((1, K), -2.0, 2.0, dtype=np.float64),
                requires_grad=True)
target = np.array([1])

logp = T.log_softmax(logits)
p = np.exp(logp.data[0])
print("class probabilities:", np.round(p, 4))
print("nll toward class 1:", round(losses.nll_loss(logp, target).item(), 6))
print("entropy:", round(losses.entropy(logp).item(), 6),
      f"(max possible ln {K} = {np.log(K):.6f})")

print("\nlambda   combined loss")
for lam in (0.0, 0.05, 0.1, 0.5, 1.0):
    val = losses.max_entropy_loss(logits, target, lam)
    print(f" {lam:<7} {val.item():.6f}")

# The entropy term's gradient pushes logits toward uniform. At uniform
# logits it vanishes entirely — uniform is its stationary point.
uniform = Tensor(np.zeros((1, K)), requires_grad=True)
backward(losses.entropy(T.log_softmax(uniform)))
print("\nentropy gradient at uniform logits:", uniform.grad[0])

peaked = Tensor(np.array([[4.0, 0.0, 0.0, 0.0]]), requires_grad=True)
backward(losses.entropy(T.log_softmax(peaked)))
print("entropy gradient at peaked logits: ", np.round(peaked.grad[0], 4))
print("(negative on the big logit: entropy rises if it shrinks — and since"
      " the loss subtracts entropy, descent pulls that logit down)")
