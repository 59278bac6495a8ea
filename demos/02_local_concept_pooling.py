"""What the local-concepts head actually computes, worked by hand.

The head slides every admissible pooling kernel (all sizes from 1x2 up to
HxW, skipping 1x1) over the feature map at stride 1. Each window's mean
is one "local concept" vector; all of them go through one shared linear
embedding + relu and are averaged. This script walks the 2x2 example
where the numbers are small enough to follow by eye, then shows how the
concept count grows with map size.
"""

import numpy as np

from lcanet.lca import (
    LcaConfig,
    LcaParams,
    concept_count,
    concept_vectors,
    enumerate_kernels,
    lca_forward,
)
from lcanet.tensor import Parameter, Tensor

fm = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])  # one image, one channel, 2x2
cfg = LcaConfig(in_channels=1, embed_dim=1)

print("feature map:\n", fm[0, 0])
print("\nkernels on a 2x2 map:", enumerate_kernels(2, 2, cfg))

vecs = concept_vectors(fm, cfg)
print("concept vectors (window means):", vecs[0, :, 0])
print("their average:", vecs[0, :, 0].mean())

# With an identity embedding (weight [[1]], zero bias) the head output is
# exactly that average: relu changes nothing since every mean is positive.
params = LcaParams(
    fc_weight=Parameter("fc_weight", np.array([[1.0]])),
    fc_bias=Parameter("fc_bias", np.array([0.0])),
)
out = lca_forward(Tensor(fm), params, cfg)
print("lca_forward output:", out.item())

# The number of concepts is a pure function of map geometry:
# sum over kernels of (H-kh+1)(W-kw+1).
print("\n map size   concepts")
for hw in range(2, 9):
    print(f"  {hw}x{hw:<8}{concept_count(hw, hw, cfg)}")

# It grows fast. lca_forward never materializes the [P, C] concept matrix:
# each window mean is a fixed average of map cells, so it embeds the H*W
# cells once and pools the embeddings with one [P, H*W] matrix. The count
# above is still the number of pooled vectors that pass the relu.
