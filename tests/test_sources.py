import ast
import importlib.util
import sys
from pathlib import Path

import gtfaces

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gtfaces"

# the package-root exports, as README's "Python API" line names them
ROOT_EXPORTS = ["Signature", "ParseError", "parse_signature", "parse_level_sequence",
                "canonicalize", "ResourceLimitError", "f_polynomial", "h_polynomial",
                "family_h", "face_lattice"]


def test_no_assert_in_package():
    # `python -O` strips assert statements, so a check written as one
    # silently disappears; cross-route checks belong in gtfaces.checks and
    # reference computations under tests/
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    found = [f"{path.name}:{node.lineno}" for path in modules
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert not found, (
        f"assert statements in src/gtfaces ({', '.join(found)}); put the check "
        f"in gtfaces.checks or under tests/ instead")


def test_package_root_exports():
    assert gtfaces.__all__ == ROOT_EXPORTS
    for name in ROOT_EXPORTS:
        assert getattr(gtfaces, name) is not None, name


def test_benchmark_finds_every_name_it_patches(monkeypatch):
    # perfbench/worker.py wraps library functions and methods by name, so a
    # rename in src/ breaks its traced passes; instrument() fails on any
    # name it cannot find
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(
        "perfbench_worker", ROOT / "perfbench" / "worker.py")
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    tracer = worker.Tracer()
    try:
        worker.instrument(gtfaces, tracer)
    finally:
        tracer.unpatch()
    assert gtfaces.poly.IntPoly.__radd__ is gtfaces.poly.IntPoly.__add__
