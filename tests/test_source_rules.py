"""Rules checked on the package source itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "raynaud"


def test_no_assert_statements_in_the_package():
    # a runtime check written as `assert` vanishes under `python -O`;
    # the package raises (Unstable, ValueError, ...) instead
    files = sorted(SRC.glob("*.py"))
    assert files
    found = [
        f"{path.name}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in the package: {found}"


def _references(path):
    """(name, line) for every Name, Attribute and `from ... import` name in a file."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node.lineno


def _product_files():
    """The package, the demos and the bench: every caller but the tests.
    The package's __init__.py only re-exports, so it calls nothing."""
    root = SRC.parent.parent
    return [
        f
        for d in ("src", "demos", "bench")
        for f in sorted((root / d).rglob("*.py"))
        if f != SRC / "__init__.py"
    ]


def test_every_module_level_definition_is_used():
    # code that nothing calls is deleted; a name only tests use does not
    # count, and neither does a re-export in the package's __init__.py
    refs = {}
    for path in _product_files():
        for name, line in _references(path):
            refs.setdefault(name, []).append((path, line))
    unused = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            outside = [
                (f, line)
                for f, line in refs.get(node.name, [])
                if f != path or not node.lineno <= line <= node.end_lineno
            ]
            if not outside:
                unused.append(f"{path.name}:{node.name}")
    assert not unused, f"module-level definitions nothing uses: {unused}"


# members kept only as an independent oracle of the tests; the comment at
# each definition names the test that uses it
TEST_ORACLE_MEMBERS = {
    "witt.py:FieldElt.frobenius_inverse",
    "witt.py:WittRing.elements",
    "witt.py:GaloisRing.to_witt",
}


def _is_dataclass(cls):
    return any(
        (isinstance(d, ast.Name) and d.id == "dataclass")
        or (isinstance(d, ast.Call) and isinstance(d.func, ast.Name) and d.func.id == "dataclass")
        for d in cls.decorator_list
    )


def test_every_member_is_read():
    # the module-level rule, one level down: every method and dataclass
    # field of a class in the package is read as an attribute (`x.name`)
    # by the package, a demo or the bench outside its own definition.
    # Dunders are called by the language; matching is by name only, so a
    # member sharing its name with one in use passes
    reads = {}
    for path in _product_files():
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.setdefault(node.attr, []).append((path, node.lineno))
    unread = []
    for path in sorted(SRC.glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if isinstance(node, ast.FunctionDef):
                    name = node.name
                elif isinstance(node, ast.AnnAssign) and _is_dataclass(cls):
                    name = node.target.id
                else:
                    continue
                if name.startswith("__") and name.endswith("__"):
                    continue
                outside = [
                    (f, line)
                    for f, line in reads.get(name, [])
                    if f != path or not node.lineno <= line <= node.end_lineno
                ]
                if not outside:
                    unread.append(f"{path.name}:{cls.name}.{name}")
    assert sorted(unread) == sorted(TEST_ORACLE_MEMBERS), f"members nothing reads: {unread}"


def test_only_the_tower_base_class_defines_proj():
    # level maps are label selections: `Tower.proj` reads every tower's
    # projection off its generator labels, so no tower overrides it
    found = [
        f"{path.name}:{cls.name}"
        for path in sorted(SRC.glob("*.py"))
        for cls in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(cls, ast.ClassDef)
        for fn in cls.body
        if isinstance(fn, ast.FunctionDef) and fn.name == "proj"
    ]
    assert found == ["rmod.py:Tower"], f"proj defined in {found}"


def test_the_package_multiplies_only_through_zmod_matmul():
    # ZMod.matmul checks the int64 bound k * (q - 1)^2 of each product; a
    # bare `@` (or np.matmul, np.dot, ...) anywhere else in the package
    # could overflow silently
    products = {"dot", "einsum", "inner", "tensordot", "vdot"}
    files = sorted(SRC.glob("*.py"))
    assert files
    found = []
    for path in files:
        tree = ast.parse(path.read_text(), filename=str(path))
        allowed = {
            id(node)
            for cls in tree.body
            if isinstance(cls, ast.ClassDef) and cls.name == "ZMod"
            for fn in cls.body
            if isinstance(fn, ast.FunctionDef) and fn.name == "matmul"
            for node in ast.walk(fn)
        }
        if path.name == "linalg.py":
            assert allowed, "ZMod.matmul not found"
        for node in ast.walk(tree):
            if id(node) in allowed:
                continue
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
                found.append(f"{path.name}:{node.lineno} @")
            elif isinstance(node, ast.Attribute) and (
                node.attr in products
                or (node.attr == "matmul" and isinstance(node.value, ast.Name) and node.value.id == "np")
            ):
                found.append(f"{path.name}:{node.lineno} {node.attr}")
    assert not found, f"products outside ZMod.matmul: {found}"


def test_only_linalg_forms_kronecker_products():
    # ZMod.kron reduces both factors, so each entry is one product below
    # q^2 < 2^62; a bare np.kron elsewhere could multiply unreduced entries
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "linalg.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and node.attr == "kron":
                bare = isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")
            elif isinstance(node, ast.ImportFrom):
                bare = node.module == "numpy" and any(alias.name == "kron" for alias in node.names)
            else:
                continue
            if bare:
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"np.kron outside linalg: {found}"


def test_the_package_does_not_use_numpy_random():
    # importing numpy.random costs every process about 11 ms and 6 MiB of
    # resident memory; the isomorphism search draws its random budget from
    # the standard library's `random`, which `import numpy` loads anyway
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute):
                used = node.attr == "random" and isinstance(node.value, ast.Name)
                used = used and node.value.id in ("np", "numpy")
            elif isinstance(node, ast.Import):
                used = any(alias.name.startswith("numpy.random") for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                used = (node.module or "").startswith("numpy.random") or (
                    node.module == "numpy" and any(alias.name == "random" for alias in node.names)
                )
            else:
                continue
            if used:
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"numpy.random used in the package: {found}"


def _is_empty_container(node):
    """An empty dict, list or set: `{}`, `[]`, or `dict()`, `list()`,
    `set()`, `defaultdict(...)`, `OrderedDict()` and the like."""
    if isinstance(node, ast.Dict):
        return not node.keys
    if isinstance(node, ast.List):
        return not node.elts
    if isinstance(node, ast.Call):
        fn = node.func
        name = fn.id if isinstance(fn, ast.Name) else fn.attr if isinstance(fn, ast.Attribute) else None
        if name == "defaultdict":
            return True
        return name in {"dict", "list", "set", "OrderedDict", "Counter"} and not node.args
    return False


def test_module_level_caches_are_the_ones_the_bench_checks():
    # each benchmark repetition starts cold: the bench checks that these
    # two module-level dicts are empty after import.  A cache kept anywhere
    # else for the life of the process would slip past that check, so
    # per-run memos live on objects (a tower's levels, a block) instead
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            else:
                continue
            if _is_empty_container(value):
                found += [f"{path.stem}.{t.id}" for t in targets if isinstance(t, ast.Name)]
    assert sorted(found) == ["blocks._BLOCK_INSTANCES", "invariants._BLOCK_CACHE"], found


def test_only_rmod_decides_that_a_chain_did_not_stabilize():
    # `rmod.stabilize` is the one acceptance loop of every stabilized
    # quantity; the other `Unstable` raises are failed identity checks
    found = [path.name for path in sorted(SRC.glob("*.py")) if "did not stabilize" in path.read_text()]
    assert found == ["rmod.py"], found


def test_only_linalg_calls_smith_normal_form():
    # one factorization per relation lattice: membership is read off a
    # `Pres`'s cached normal form, solves off `LinearSolver`, so no other
    # module runs an elimination of its own
    found = [
        f"{path.name}:{line}"
        for path in sorted(SRC.glob("*.py"))
        if path.name not in ("linalg.py", "__init__.py")
        for name, line in _references(path)
        if name == "smith_normal_form"
    ]
    assert not found, f"smith_normal_form referenced outside linalg: {found}"


def test_no_slope_is_read_from_block_metadata():
    # every slope in an output comes from a Newton polygon the package
    # computed; no `x.slopes` attribute is read anywhere in it
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Attribute) and node.attr == "slopes"
    ]
    assert not found, f"slopes read as an attribute: {found}"
