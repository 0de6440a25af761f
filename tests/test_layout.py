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


def _references(tree: ast.Module) -> tuple[dict, set]:
    """One walk of tree: the top-level statements that read each Name, and
    the (module, name) pairs taken from a sibling as `from .module import
    name` or read as `module.name`."""
    readers, taken = {}, set()
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                readers.setdefault(node.id, set()).add(top)
            elif isinstance(node, ast.ImportFrom) and node.level == 1:
                taken.update((node.module, a.name) for a in node.names)
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                taken.add((node.value.id, node.attr))
    return readers, taken


def unreferenced_names() -> list:
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    assert "latsum" in trees, f"no package sources under {PACKAGE}"
    refs = {stem: _references(tree) for stem, tree in trees.items()}
    out = []
    for module, tree in trees.items():
        readers = refs[module][0]
        for d in tree.body:
            if not isinstance(d, (ast.FunctionDef, ast.ClassDef)) or d.name.startswith("_"):
                continue
            # a read outside the definition's own subtree, or from another module
            used = bool(readers.get(d.name, set()) - {d}) or any(
                (module, d.name) in taken
                for stem, (_, taken) in refs.items() if stem not in (module, "__init__"))
            if not used:
                out.append((module, d.name))
    return out


def test_every_public_name_is_referenced_from_src():
    assert sorted(set(unreferenced_names()) - ALLOWED_UNREFERENCED) == []

