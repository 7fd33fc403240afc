"""Every module-level function or class of the package has a caller in
the package itself, so code that only tests reach does not pile up; and
the package exports what its ``__init__`` imports.  Public names may be
kept without a caller, with a reason; private ones may not."""

import ast
from pathlib import Path

import conecalc

SRC = Path(__file__).resolve().parents[1] / "src" / "conecalc"

# public names kept without a caller in the package, with the reason
ALLOWED = {
    "cli.load_schema": "tests validate reports against the schema",
    "conormal.constant_cone_check": "ROADMAP item 5 puts it in the analyze "
                                    "report",
    "dini.quotient_scan": "the per-scale profiles of the kernel that "
                          "slabs and a vector map's fixed_bounds read as "
                          "arrays; ROADMAP item 3 reports their convergence",
}


def referenced_names(tree: ast.AST) -> set:
    """Names a tree uses: loads, attribute reads and imported names."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def unreferenced_names() -> list:
    """Module-level functions and classes that no other top-level
    statement of the package uses.  A definition decorated by a function
    of the package counts as used: the decorator registers it, as
    verify's ``_prop`` does."""
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    # the names each top-level statement of each module uses, walked once
    uses = [(stmt, referenced_names(stmt))
            for tree in trees.values() for stmt in tree.body]
    defs = [(module, node) for module, tree in trees.items()
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    own = {node.name for _, node in defs if isinstance(node, ast.FunctionDef)}
    found = []
    for module, node in defs:
        registrars = {getattr(getattr(d, "func", d), "id", None)
                      for d in node.decorator_list}
        if registrars & own:
            continue
        # every other top-level statement, so a recursive call inside
        # the definition does not count
        if not any(node.name in names for stmt, names in uses
                   if stmt is not node):
            found.append(f"{module}.{node.name}")
    return found


def unreferenced_public_names() -> list:
    return [n for n in unreferenced_names()
            if not n.split(".")[1].startswith("_")]


def test_every_public_name_has_a_caller():
    assert sorted(set(unreferenced_public_names()) - set(ALLOWED)) == []


def test_every_private_name_has_a_caller():
    assert [n for n in unreferenced_names()
            if n.split(".")[1].startswith("_")] == []


def test_allowlist_names_exist_without_a_caller():
    assert sorted(set(ALLOWED) - set(unreferenced_public_names())) == []


def test_all_lists_the_names_init_imports():
    tree = ast.parse((SRC / "__init__.py").read_text())
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert set(conecalc.__all__) - {"__version__"} == imported
    assert len(conecalc.__all__) == len(set(conecalc.__all__))
