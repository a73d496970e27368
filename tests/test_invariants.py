import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "qckit"


def test_no_bare_assert_in_library():
    # every invariant raises a typed QCKitError; a bare assert would vanish
    # under python -O, so the -O test run alone cannot notice a new one
    paths = sorted(SRC.rglob("*.py"))
    assert paths, f"no sources under {SRC}"
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.relative_to(SRC)}:{node.lineno}"
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == [], f"bare assert in the library: {found}"
