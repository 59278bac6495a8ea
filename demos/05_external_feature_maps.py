"""Run the local-concepts head on feature maps you computed elsewhere.

The library's second backbone, ``external_features``, is an identity
stand-in: it feeds stored [C, H, W] feature maps straight to the head, the
way you would pair the head with a frozen pretrained network — export its
feature maps once, then train only the head here. The demo's stand-in
"pretrained network" is a matched-filter bank: one zero-mean 4x4 template
per class glyph, applied with the library's own conv, relu'd, max-pooled, and
standardized (center/scale per channel, as for any frozen-feature
pipeline) before being written to .lcaf files.
"""

import tempfile
from pathlib import Path

import numpy as np

from lcanet import tensor as T
from lcanet.config import load_config
from lcanet.data import load_feature_file, make_glyphs, synth_glyphs, write_feature_file
from lcanet.rng import Rng
from lcanet.tensor import Tensor, no_grad
from lcanet.train import run_training

K = 5
train, test = synth_glyphs(K, 40, 10, seed=11)
# make_glyphs with the same seed yields the class templates synth drew
glyphs, _ = make_glyphs(K, Rng(11))

filters = np.zeros((K, 3, 4, 4), dtype=np.float32)
for k, mask in enumerate(glyphs):
    cell = np.array(
        [[(mask >> (i * 4 + j)) & 1 for j in range(4)] for i in range(4)],
        dtype=np.float32,
    )
    cell -= cell.mean()  # zero-DC: ignore the background level
    filters[k] = cell / 3.0  # spread evenly over the three channels
bias = np.zeros(K, dtype=np.float32)


def featurize(images):
    # The spatial ops take batch-innermost [C, H, W, B] maps.
    with no_grad():
        y = T.transpose(Tensor(images), (1, 2, 3, 0))
        y = T.relu(T.conv2d(y, Tensor(filters), Tensor(bias)))
        y = T.maxpool2d(y, 2, 2)
        y = T.transpose(y, (3, 0, 1, 2))
    return y.data


raw_train, raw_test = featurize(train.inputs), featurize(test.inputs)
mu = raw_train.mean(axis=(0, 2, 3), keepdims=True)
sd = raw_train.std(axis=(0, 2, 3), keepdims=True)
with tempfile.TemporaryDirectory(prefix="lcanet_feats_") as tmp:
    root = Path(tmp)
    write_feature_file(root / "train.lcaf", (raw_train - mu) / sd, train.labels)
    write_feature_file(root / "test.lcaf", (raw_test - mu) / sd, test.labels)

    back = load_feature_file(root / "train.lcaf")
    print("stored feature tensor:", back.inputs.shape, back.inputs.dtype)

    cfg_path = root / "run.cfg"
    cfg_path.write_text(f"""
seed = 11
epochs = 40
batch_size = 25
lr = 0.2
momentum = 0.9
lambda_entropy = 0.1
lr_step_epoch = 0
backbone = external_features
channels = {K}
data.format = lcaf
head = lca
lca.embed_dim = 16
data.train = {root}/train.lcaf
data.test = {root}/test.lcaf
ckpt.out = {root}/feat.lcac
log.csv = {root}/feat.csv
""")

    summary = run_training(load_config(cfg_path))

print(f"head-only model on detector-bank features: "
      f"train {summary.final_train_acc:.2f}%  test {summary.final_test_acc:.2f}%")
print("(no backbone parameters were trained; the multi-scale windows over")
print(" the 6x6 detector maps are enough to localize and read off the class)")
