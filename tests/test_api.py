"""The library ships only what runs: its public names are pinned, every
module-level function and class, and every method, has a caller outside the
tests, and the oracles the tests compare against live under tests/."""
import ast
from collections import Counter
from pathlib import Path

import killform

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "killform"

PUBLIC = [
    "CasimirExpansion", "CharTable", "ClassFunction", "ConjClass",
    "Decomposition", "Group", "IntSymMatrix", "KillformError",
    "KillingForm", "Partition", "Perm", "Signature", "SpectrumEntry",
    "alternating_group", "analyze", "build_named_group", "casimir",
    "character_table", "conjugation_character", "connected_components",
    "eigenspace_decomposition", "euler_count", "exact_rank",
    "generate_group", "integrality_audit", "killing_matrix",
    "multiplicities", "parse_group_file", "psl2", "psl3", "rank_mod_p",
    "roth_check", "sign_rep_multiplicity", "sign_rep_occurs", "signature",
    "sn_character", "specht_dimension", "specht_multiplicity",
    "specht_occurs", "spectrum", "symmetric_class", "symmetric_group",
    "two_cycles_eigenvalues", "universal_killing",
]


# methods kept for the library's users with no caller of their own:
# the export that `decompose --char-table` reads, and a group's and a
# class's Perms
UNCALLED_METHODS = {"CharTable.to_json", "ConjClass.members", "Group.elements"}


def _caller_trees() -> dict:
    callers = [*PACKAGE.glob("*.py"), *(ROOT / "perfbench").glob("*.py"),
               *(ROOT / "tools").glob("*.py")]
    return {path: ast.parse(path.read_text(encoding="utf-8")) for path in callers}


def _uses(node) -> Counter:
    """How often each name is read, or each attribute taken, inside node."""
    return Counter(sub.id if isinstance(sub, ast.Name) else sub.attr for sub in ast.walk(node)
                   if isinstance(sub, (ast.Name, ast.Attribute)))


def _attribute_uses(node) -> Counter:
    """How often each attribute is taken inside node: a local variable or
    parameter of a method's name is no call of the method."""
    return Counter(sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute))


def test_public_names_are_pinned():
    assert len(PUBLIC) == 44
    assert sorted(killform.__all__) == sorted(PUBLIC)
    for name in PUBLIC:
        assert getattr(killform, name) is not None, name


def test_every_library_definition_has_a_caller():
    trees = _caller_trees()
    # names used by each top-level statement, so that a definition's use of
    # its own name (recursion) does not count as a caller
    statements = [(stmt, _uses(stmt)) for tree in trees.values() for stmt in tree.body]
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in trees[path].body:
            if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                continue
            if stmt.name in killform.__all__:
                continue
            if not any(stmt.name in used for other, used in statements if other is not stmt):
                unused.append(f"{path.name}:{stmt.name}")
    assert not unused, f"library definitions with no caller: {unused}"


def test_every_library_method_has_a_caller():
    """A method's callers are the attribute uses of its name anywhere but in
    its own body; dunder methods are called by the language."""
    trees = _caller_trees()
    used = sum((_attribute_uses(tree) for tree in trees.values()), Counter())
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for cls in trees[path].body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for method in cls.body:
                if (not isinstance(method, ast.FunctionDef) or method.name.startswith("__")
                        or f"{cls.name}.{method.name}" in UNCALLED_METHODS):
                    continue
                if used[method.name] == _attribute_uses(method)[method.name]:
                    unused.append(f"{path.name}:{cls.name}.{method.name}")
    assert not unused, f"library methods with no caller: {unused}"




def _sibling_imports(node) -> list:
    """The killform modules each import statement under node names, as
    (statement, module) pairs; the `from . import x` form names x."""
    out = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.ImportFrom) and (sub.level or
                                                (sub.module or "").startswith("killform")):
            modules = [sub.module] if sub.module else [alias.name for alias in sub.names]
            out += [(sub, m.split(".")[-1]) for m in modules]
        elif isinstance(sub, ast.Import):
            out += [(sub, alias.name.split(".")[-1]) for alias in sub.names
                    if alias.name.startswith("killform")]
    return out


def _is_type_checking(stmt) -> bool:
    return isinstance(stmt, ast.If) and getattr(stmt.test, "id", None) == "TYPE_CHECKING"


def test_specht_does_not_import_killing():
    tree = ast.parse((PACKAGE / "specht.py").read_text(encoding="utf-8"))
    imported = [m for _, m in _sibling_imports(tree)]
    assert "killing" not in imported, imported


def test_characters_does_not_import_killing():
    # killing reads characters, one way; characters names KillingForm only
    # for the type checker
    tree = ast.parse((PACKAGE / "characters.py").read_text(encoding="utf-8"))
    runtime = [stmt for stmt in tree.body if not _is_type_checking(stmt)]
    imported = [m for stmt in runtime for _, m in _sibling_imports(stmt)]
    assert "killing" not in imported, imported


def test_no_module_imports_a_sibling_inside_a_function():
    inside = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        top = {id(stmt) for stmt in tree.body}
        top |= {id(sub) for stmt in tree.body if _is_type_checking(stmt) for sub in stmt.body}
        inside += [f"{path.name}:{node.lineno} imports {m}" for node, m in _sibling_imports(tree)
                   if id(node) not in top]
    assert not inside, inside
