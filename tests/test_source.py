"""Source hygiene: production code that only tests use is deleted."""
import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "axiswirl"


def _uses(node: ast.AST) -> Counter:
    """How often each name is loaded as a variable or an attribute in ``node``;
    imports and ``__all__`` strings are no uses."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def test_every_module_level_definition_is_used_in_src():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    uses = sum((_uses(tree) for tree in trees.values()), Counter())
    unused = [f"{name}:{node.lineno} {node.name}"
              for name, tree in trees.items() for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and uses[node.name] == _uses(node)[node.name]]
    assert not unused, "defined in src but used only outside it: " + ", ".join(unused)
