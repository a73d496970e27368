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


def test_no_polynomial_division_or_gcd_in_library():
    # every polynomial job is a product or a power: the canonical-modulus
    # search runs Rabin's test in the candidate's residue ring, and D_I's
    # generator is the product of the factors outside I
    banned = {"_pgcd", "_pmonic_rem", "_ppowmod", "divmod_", "gcd_", "__floordiv__", "__mod__"}
    found = [f"{name}:{node.lineno} {node.name}" for name, tree in library_trees()
             for node in ast.walk(tree)
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name in banned]
    assert found == [], f"polynomial division or gcd in the library: {found}"


def test_no_private_gf_name_outside_gf():
    # the field maps have one body, in gf.py: other modules embed, restrict
    # and trace through the public functions, never through gf's private
    # helpers, so no second whole-field table can grow around them
    found = []
    for name, tree in library_trees():
        if name == "gf.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "gf":
                found += [f"{name}:{node.lineno} {a.name}" for a in node.names if a.name.startswith("_")]
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id == "gf" and node.attr.startswith("_")):
                found.append(f"{name}:{node.lineno} gf.{node.attr}")
    assert found == [], f"private gf names outside gf.py: {found}"
