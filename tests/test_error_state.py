"""Where numpy's floating-point error state is set in src/.

Only the functions where a public call enters the package set it; every
function they call runs inside the caller's scope and tests finiteness
itself (see the package docstring).
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "semipoison"

ENTRIES = {  # (module file, qualified function name): the one scope each sets
    ("qp.py", "solve_qp"),
    ("qp.py", "kkt_residuals"),
    ("sensitivity.py", "semi_derivative"),
    ("victims.py", "solve_victim"),
    ("attack.py", "_drive"),
    ("attack.py", "objective"),
    ("attack.py", "project_to_feasible"),
    ("data.py", "Dataset.__post_init__"),
}


def error_state_sites():
    """(file, enclosing qualified name or "<module>", line) of each errstate or seterr in src/.

    A decorator counts as part of the function it decorates.
    """
    sites = []

    def visit(node, path, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, ast.Attribute) and node.attr in ("errstate", "seterr"):
            sites.append((path.name, scope or "<module>", node.lineno))
        elif isinstance(node, ast.Name) and node.id in ("errstate", "seterr"):
            sites.append((path.name, scope or "<module>", node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, path, scope)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path, "")
    return sites


def test_error_state_is_set_only_where_a_public_call_enters():
    """Each of the eight entry functions sets it once, and no other code in src/ does."""
    sites = error_state_sites()
    outside = [site for site in sites if site[:2] not in ENTRIES]
    assert not outside, f"np.errstate outside the entry functions: {outside}"
    per_entry = sorted((site[:2] for site in sites))
    assert per_entry == sorted(ENTRIES)
