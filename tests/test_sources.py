import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "gtfaces"


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
