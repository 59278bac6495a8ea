"""The benchmark's tracer finds every lcanet name it wraps, and puts it back.

``benchmarks/tracer.py`` looks lcanet's functions and methods up by name, so
renaming or deleting one breaks every traced benchmark run. The benchmark's
own tests live outside the default test paths; this one keeps the seam in
the main suite.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))

import tracer  # noqa: E402
from lcanet.model import Model  # noqa: E402
from lcanet.optim import SGD  # noqa: E402
from lcanet.rng import Rng  # noqa: E402


def _lcanet_bindings():
    """Every attribute of every loaded lcanet module and patched class."""
    owners = [m for name, m in sys.modules.items() if name.split(".")[0] == "lcanet"]
    owners += [Model, SGD, Rng]
    return {(o.__name__, attr): value for o in owners for attr, value in list(vars(o).items())}


def test_tracer_and_probe_install_and_restore():
    before = _lcanet_bindings()
    with tracer.Patches() as patches:
        try:
            tracer.Tracer().install(patches)
            tracer.Probe().install(patches)
        except (AttributeError, KeyError) as exc:
            pytest.fail(f"the benchmark wraps an lcanet name that is gone: {exc!r}")
        assert _lcanet_bindings() != before, "nothing was wrapped"
    after = _lcanet_bindings()
    assert after.keys() == before.keys()
    changed = [key for key, value in before.items() if after[key] is not value]
    assert not changed
