"""No check in the package may rest on `assert`: `python -O` strips them."""
import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "phasefrac"


def test_package_has_no_assert_statements():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    found = [f"{path.name}:{node.lineno}" for path in modules
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in src/phasefrac: {found}"
