import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "qckit"


def library_trees():
    paths = sorted(SRC.rglob("*.py"))
    assert paths, f"no sources under {SRC}"
    return [(path.relative_to(SRC).as_posix(), ast.parse(path.read_text(), filename=str(path)))
            for path in paths]


def test_no_bare_assert_in_library():
    # every invariant raises a typed QCKitError; a bare assert would vanish
    # under python -O, so the -O test run alone cannot notice a new one
    found = [f"{name}:{node.lineno}" for name, tree in library_trees()
             for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == [], f"bare assert in the library: {found}"


def test_no_scalar_element_api_outside_gf():
    # elements are integer indices in every API; the Felt record and unembed
    # stay in gf.py (exported by __init__.py) for the benchmark harness only,
    # so no other module may grow a second scalar element API around them
    def names(node):
        if isinstance(node, ast.Name):
            return {node.id}
        if isinstance(node, ast.Attribute):
            return {node.attr}
        if isinstance(node, ast.alias):
            return {node.name, node.asname}
        return set()

    found = [f"{name}:{node.lineno}" for name, tree in library_trees()
             if name not in ("gf.py", "__init__.py")
             for node in ast.walk(tree) if names(node) & {"Felt", "unembed"}]
    assert found == [], f"Felt or unembed outside gf.py: {found}"
