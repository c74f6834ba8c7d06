import ast
import pathlib

import gridlab

SRC = pathlib.Path(gridlab.__file__).parent


def test_no_bare_assert_in_package():
    # python -O strips assert statements, so invariant checks must raise
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []
