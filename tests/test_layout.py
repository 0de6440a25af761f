"""The package holds only code that the package runs.

Every public module-level function or class in src/heckekernel must be
referenced from src/ outside its own definition: by name in its module, as
`from .module import name`, or as `module.name`.  A re-export from
__init__ does not count.  Test oracles live in tests/oracles.py instead.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "heckekernel"

# the module's value functions next to delta_value, kept as its public API;
# the one-mode coefficients, which xi_tilde_fourier assembles bit for bit
# from factors it computes once per call
ALLOWED_UNREFERENCED = {("modforms", "j_invariant"), ("modforms", "j_prime"),
                        ("modforms", "dlog_delta"), ("continuation", "ar_sum"),
                        ("continuation", "arprime_sum")}


def _nodes(tree: ast.Module, skip: ast.AST = None):
    """Every node of tree outside the subtree skip."""
    stack = [n for n in tree.body if n is not skip]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(c for c in ast.iter_child_nodes(node) if c is not skip)


def _refers_to(node: ast.AST, module: str, name: str) -> bool:
    """node imports name from the sibling module, or reads module.name."""
    if isinstance(node, ast.ImportFrom):
        return node.level == 1 and node.module == module and name in {a.name for a in node.names}
    return (isinstance(node, ast.Attribute) and node.attr == name
            and isinstance(node.value, ast.Name) and node.value.id == module)


def unreferenced_names() -> list:
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    assert "latsum" in trees, f"no package sources under {PACKAGE}"
    out = []
    for module, tree in trees.items():
        for d in tree.body:
            if not isinstance(d, (ast.FunctionDef, ast.ClassDef)) or d.name.startswith("_"):
                continue
            used = any(isinstance(n, ast.Name) and n.id == d.name for n in _nodes(tree, d)) or any(
                _refers_to(n, module, d.name)
                for stem, other in trees.items() if stem not in (module, "__init__")
                for n in _nodes(other))
            if not used:
                out.append((module, d.name))
    return out


def test_every_public_name_is_referenced_from_src():
    assert sorted(set(unreferenced_names()) - ALLOWED_UNREFERENCED) == []

