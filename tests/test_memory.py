"""Memory behaviour that only a fresh process shows.

Each test runs a child Python process on this checkout's sources, so the
allocator settings made at ``import lcanet`` and the resident-set figures
are the child's own.

- A glyph training step re-uses the heap pages of the step before. With
  glibc's default thresholds each step page-faults its temporaries in
  again: 52 to 1,187 minor faults per step at batch 32, by how the process
  started, against 0 to 0.8 with the thresholds ``lcanet`` sets.
- LCAF maps are read a batch at a time with positioned reads, so neither
  the anonymous memory nor the whole resident set of a process grows with
  the feature files it loads. A loader that read the maps into memory held
  18.1, 22.1 and 37.8 MB of ``RssAnon`` for the three files below. One that
  memory-mapped them held 17.1 MB of ``RssAnon`` for each, but its ``VmRSS``
  grew by the 21 MB of the three files, since every page a batch read
  stayed mapped.
"""

import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lcanet import write_feature_file

SRC = Path(__file__).resolve().parents[1] / "src"


def run_child(code, *args):
    env = {k: v for k, v in os.environ.items() if not k.startswith("MALLOC_")}
    env["PYTHONPATH"] = str(SRC)
    done = subprocess.run([sys.executable, "-c", code, *map(str, args)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


GLYPH_STEPS = """
import resource, sys
from lcanet import Architecture, Rng, SGD, Tensor, backward, batches, build_model, synth_glyphs
from lcanet.losses import loss_terms

train, _ = synth_glyphs(8, 8, 0, seed=0)
model = build_model(Architecture("tiny_cnn", (16, 32), (16, 16), 32, 8), rng=Rng(0))
optim = SGD(model.parameters(), lr=0.01, momentum=0.9)
rng = Rng(1)

def steps(n):
    while n:
        for b in batches(train, 32, rng=rng):
            backward(loss_terms(model.forward(Tensor(b.inputs)), b.labels, 0.1)[0])
            optim.step()
            n -= 1
            if not n:
                return

steps(int(sys.argv[1]))
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
steps(int(sys.argv[2]))
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
                    reason="the allocator thresholds are set on glibc Linux only")
def test_a_glyph_step_does_not_fault_its_working_memory_back_in():
    """10 warm-up steps, then 50 counted ones. Calibrated on 2 CPUs with
    numpy 2.4: 0 faults per step with the thresholds, and 1,171 with the
    two ``mallopt`` calls taken out."""
    steps = 50
    [faults] = run_child(GLYPH_STEPS, 10, steps)
    assert int(faults) / steps < 10, f"{int(faults) / steps:.1f} minor faults per step"


AFTER_BATCHES = """
import sys
from lcanet import batches, load_feature_file

def status_kb(field):
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    return -1

kept = []
for path in sys.argv[2:]:
    kept.append(load_feature_file(path))
    for _ in batches(kept[-1], 32):
        pass
    print(status_kb(sys.argv[1]))
"""


@pytest.fixture(scope="module")
def feature_files(tmp_path_factory):
    """Files of 160, 640 and 2,560 maps of 32x7x7 (1.0, 4.0 and 16.1 MB)."""
    root = tmp_path_factory.mktemp("lcaf")
    base = np.random.default_rng(0).standard_normal((160, 32, 7, 7), dtype=np.float32)
    paths = []
    for k in (1, 4, 16):
        paths.append(root / f"x{k}.lcaf")
        write_feature_file(paths[-1], np.tile(base, (k, 1, 1, 1)), np.arange(160 * k) % 2)
    return paths


def kb_after_each_file(field, paths):
    kb = [int(v) for v in run_child(AFTER_BATCHES, field, *paths)]
    if kb[0] < 0:
        pytest.skip(f"/proc/self/status has no {field} line")
    return kb


def test_anonymous_memory_does_not_grow_with_the_feature_files(feature_files):
    """All three files held at once: ``RssAnon`` moves by less than 1 MB."""
    kb = kb_after_each_file("RssAnon", feature_files)
    assert max(kb) - kb[0] < 1024, f"RssAnon {kb} kB after the 1x, 4x and 16x files"


def test_resident_set_does_not_grow_with_the_feature_files(feature_files):
    """All three files held at once: ``VmRSS`` moves by less than 2 MB after
    one pass of batches over each (it grew by 20 MB with mapped maps)."""
    kb = kb_after_each_file("VmRSS", feature_files)
    assert max(kb) - kb[0] < 2048, f"VmRSS {kb} kB after the 1x, 4x and 16x files"
