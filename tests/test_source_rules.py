"""Rules about the library's source that no behaviour test would notice.

numpy is the only runtime dependency, and the tape's private plumbing
(``_record``, which decides whether an op is taped and records it) is used
only by ``lcanet.tensor``, where every adjoint is defined. A ``Model`` is
built one way, by ``build_model`` or ``load_checkpoint``; an ``Architecture``
is made from a config, a checkpoint or the gradient suite's end-to-end check;
one function parses an LCAF header; one function reads a PPM file; one
function reads LCAF maps and labels, with no memory map; and one function
writes a file.
"""

import ast
import sys
from pathlib import Path

import pytest

import lcanet.losses
import lcanet.tensor

SRC = Path(__file__).resolve().parents[1] / "src" / "lcanet"
MODULES = sorted(SRC.glob("*.py"))
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "lcanet"}


def _imported_top_levels(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def _calls():
    """(module, top-level function or class, call node) of every call."""
    for path in MODULES:
        for top in ast.parse(path.read_text(encoding="utf-8"), filename=str(path)).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    yield path.name, getattr(top, "name", "<module>"), node


def _callers(*names):
    """(module, top-level function or class) of every call to one of ``names``."""
    return {(mod, top) for mod, top, node in _calls()
            if getattr(node.func, "id", getattr(node.func, "attr", None)) in names}


def test_modules_are_found():
    assert {p.name for p in MODULES} >= {"tensor.py", "losses.py", "train.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_only_the_standard_library_numpy_and_lcanet(path):
    foreign = sorted(set(_imported_top_levels(path)) - ALLOWED)
    assert not foreign, f"{path.name} imports {foreign}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_tensor_names_record(path):
    named = "_record" in path.read_text(encoding="utf-8")
    assert named == (path.name == "tensor.py")


def test_losses_reexports_the_tensor_ops():
    assert lcanet.losses.nll_loss is lcanet.tensor.nll_loss
    assert lcanet.losses.entropy is lcanet.tensor.entropy


def test_only_model_constructs_a_model():
    assert _callers("Model") == {("model.py", "build_model"), ("model.py", "load_checkpoint")}


def test_an_architecture_comes_from_a_config_a_checkpoint_or_gradcheck():
    assert _callers("Architecture") == {
        ("model.py", "load_checkpoint"), ("train.py", "run_training"), ("gradcheck.py", "_e2e")}


def test_one_function_unpacks_an_lcaf_header():
    unpackers = {fn for mod, fn in _callers("unpack", "unpack_from") if mod == "data.py"}
    assert unpackers == {"_read_header"}


def test_one_function_reads_a_ppm_file():
    """``_read_bytes`` is the one place ``data.py`` opens a file to read a
    PPM, and both functions that decode one read through it."""
    readers = {("data.py", "read_ppm"), ("data.py", "load_image_dir")}
    assert _callers("_decode_ppm") == readers
    assert _callers("_read_bytes") == readers
    openers = {fn for mod, fn in _callers("open") if mod == "data.py"}
    assert openers == {"_read_bytes", "_replace_file", "read_feature_header", "load_feature_file"}


def test_one_function_reads_lcaf_maps_and_labels():
    """Nothing in ``src/lcanet`` memory-maps a file or calls ``fromfile``.
    ``load_feature_file`` is the one function that opens an LCAF file for its
    payload, and ``_read_at`` the one that reads it: the labels for the
    loader, each batch's maps for ``FeatureMaps``."""
    assert _callers("memmap", "fromfile", "mmap") == set()
    assert _callers("readinto") == {("data.py", "_read_at")}
    assert _callers("_read_at") == {("data.py", "load_feature_file"), ("data.py", "FeatureMaps")}
    assert _callers("FeatureMaps") == {("data.py", "load_feature_file")}


def test_one_function_writes_a_file():
    """``data._replace_file`` is the one function that renames a file into
    place or opens one for writing, and ``_read_bytes`` alone calls
    ``os.open``, to read. The null device that ``cli.main`` sends a closed
    stdout to is not a file lcanet writes. A mode that is not a literal
    fails the rule."""
    def callers(spelling):
        return {(mod, top) for mod, top, node in _calls() if ast.unparse(node.func) == spelling}

    assert callers("os.replace") == {("data.py", "_replace_file")}
    assert callers("os.rename") == set()
    assert callers("os.open") == {("data.py", "_read_bytes")}
    writers = set()
    for mod, top, node in _calls():
        if ast.unparse(node.func) != "open" or ast.unparse(node.args[0]) == "os.devnull":
            continue
        kwargs = {kw.arg: kw.value for kw in node.keywords}
        mode = ast.literal_eval(node.args[1] if len(node.args) > 1 else
                                kwargs.get("mode", ast.Constant("r")))
        if set(mode) & set("wax+"):
            writers.add((mod, top, mode))
    assert writers == {("data.py", "_replace_file", "wb")}
