"""Source hygiene: production code that only tests use is deleted, no type shadows another,
the velocity's component layout has one home, and no parameter sets the viscosity."""
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


def test_no_two_dataclasses_declare_the_same_fields():
    fields = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef) and any(
                    "dataclass" in ast.unparse(d) for d in node.decorator_list):
                names = frozenset(s.target.id for s in node.body if isinstance(s, ast.AnnAssign))
                fields.setdefault(names, []).append(f"{path.name}:{node.name}")
    shadows = [homes for homes in fields.values() if len(homes) > 1]
    assert not shadows, "dataclasses with the same fields: " + "; ".join(map(", ".join, shadows))


def test_only_fields_names_the_velocity_components():
    # every other module acts on the stacked array or reads the named views;
    # a component keyed by its name string lays the velocity out again
    names = {"vr", "vtheta", "vz"}
    found = [f"{path.name}:{node.lineno} {node.value!r}"
             for path in sorted(SRC.glob("*.py")) if path.name != "fields.py"
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Constant) and isinstance(node.value, str)
             and node.value in names]
    assert not found, "velocity components named outside fields.py: " + ", ".join(found)


def _uses_scipy_sparse(node: ast.AST) -> bool:
    """Whether ``node`` imports from or reads scipy.sparse, other than
    ``from scipy.sparse._sparsetools import csc_matvecs, csr_matvecs``."""
    if isinstance(node, ast.Import):
        return any(a.name.startswith("scipy.sparse") for a in node.names)
    if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("scipy.sparse"):
        return ((node.module, [a.name for a in node.names])
                != ("scipy.sparse._sparsetools", ["csc_matvecs", "csr_matvecs"]))
    return isinstance(node, ast.Attribute) and node.attr == "sparse"


def test_solver_takes_only_the_product_kernel_from_scipy_sparse():
    # the solver's 1D operators are index arrays (Csr) applied by _product;
    # scipy.sparse lends the kernels alone, for A and for its transpose
    tree = ast.parse((SRC / "solver.py").read_text(encoding="utf-8"))
    found = [f"{node.lineno} {ast.unparse(node)}" for node in ast.walk(tree)
             if _uses_scipy_sparse(node)]
    assert not found, ("solver.py uses scipy.sparse beyond csc_matvecs and csr_matvecs: "
                       + ", ".join(found))


def _declared(node: ast.AST) -> str | None:
    """The name that ``node`` declares, if it is a function parameter or an
    annotated (dataclass) field."""
    if isinstance(node, ast.arg):
        return node.arg
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return node.target.id
    return None


def test_no_viscosity_parameter_in_src():
    # the viscosity is 1, as in the paper: no field or parameter can set it
    found = [f"{path.name}:{node.lineno} {_declared(node)}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if _declared(node) in ("mu", "nu")]
    assert not found, "viscosity parameters in src: " + ", ".join(found)
