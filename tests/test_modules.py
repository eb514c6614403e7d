"""Static hygiene of the package modules: every imported name is used, every
private module-level name is referenced, every public function, and every
public method and property of a public class, has a caller outside the tests,
every default of one is omitted by a caller outside the tests, every
parameter is read, every field of a public dataclass has a reader outside the
tests, every annotation resolves, and only `grid` reorders spectra for np.fft.
Standard library only (ast, typing)."""
import ast
import importlib
import inspect
import pathlib
import typing

import pytest

import pwlab

SRC = pathlib.Path(pwlab.__file__).parent
MODULES = sorted(p.stem for p in SRC.glob("*.py"))


def _unused_imports(tree: ast.Module) -> list:
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in bound.items()
                  if name not in used)


@pytest.mark.parametrize("name", [m for m in MODULES if m != "__init__"])
def test_no_unused_imports(name):
    tree = ast.parse((SRC / f"{name}.py").read_text())
    assert _unused_imports(tree) == []


def _private_definitions(tree: ast.Module) -> list:
    """Names starting with one underscore that a module binds at top level."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _local_names(fn) -> set:
    """Names a function binds itself: its parameters and assignment targets,
    not those of the functions nested in it."""
    a = fn.args
    names = {arg.arg for arg in a.posonlyargs + a.args + a.kwonlyargs
             + [x for x in (a.vararg, a.kwarg) if x is not None]}
    todo = list(fn.body) if isinstance(fn.body, list) else [fn.body]
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        if not isinstance(node, _SCOPES):
            todo.extend(ast.iter_child_nodes(node))
        elif not isinstance(node, ast.Lambda):
            names.add(node.name)
    return names


def _references(tree: ast.Module) -> set:
    """Names a module reads, reads as attributes, or imports.  A read of a
    name the enclosing function binds itself is that local, not a reference."""
    refs = set()
    todo = [(tree, frozenset())]
    while todo:
        node, local = todo.pop()
        if isinstance(node, _SCOPES):
            local = local | _local_names(node)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id not in local:
                refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            refs.update(alias.name for alias in node.names)
        todo.extend((child, local) for child in ast.iter_child_nodes(node))
    return refs


def test_private_names_are_referenced():
    trees = {name: ast.parse((SRC / f"{name}.py").read_text()) for name in MODULES}
    refs = set().union(*(_references(tree) for tree in trees.values()))
    defined = [(name, n) for name, tree in trees.items()
               for n in _private_definitions(tree)]
    assert len(defined) > 40
    assert [f"{name}.{n}" for name, n in defined if n not in refs] == []


# Public functions, methods and properties that only the tests call.  This
# list may shrink, not grow: a new public function needs a caller in the
# package, scripts/ or perfbench/.
TEST_ONLY = set()


def _public(name: str) -> bool:
    return not name.startswith("_")


def _public_functions(tree: ast.Module) -> list:
    """Public top-level functions, and the public methods and properties of
    public classes as Class.name."""
    names = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and _public(node.name):
            names.append(node.name)
        elif isinstance(node, ast.ClassDef) and _public(node.name):
            names += [f"{node.name}.{m.name}" for m in node.body
                      if isinstance(m, ast.FunctionDef) and _public(m.name)]
    return names


def _callers() -> list:
    """The trees of the package modules, scripts/ and perfbench/; the
    re-exports in __init__ do not count."""
    root = SRC.parent.parent
    paths = ([SRC / f"{name}.py" for name in MODULES if name != "__init__"]
             + sorted((root / "scripts").glob("*.py"))
             + sorted((root / "perfbench").glob("*.py")))
    assert len(paths) > len(MODULES)
    return [ast.parse(p.read_text()) for p in paths]


def test_public_functions_have_a_caller():
    # a definition is not a reference
    refs = set().union(*(_references(tree) for tree in _callers()))
    public = [f"{name}.{n}" for name in MODULES
              for n in _public_functions(ast.parse((SRC / f"{name}.py").read_text()))]
    assert len(public) > 100
    assert {q for q in public if q.rsplit(".", 1)[1] not in refs} == TEST_ONLY


def _defaulted_parameters(tree: ast.Module) -> list:
    """(function, parameter, position) for each default of a module-level
    function, public or private, or of a public method of a public class as
    Class.name; the position is the parameter's index among the positional
    arguments of a call (a method's self not counted), None for a keyword-only
    one."""
    defs = [(n.name, n, 0) for n in tree.body if isinstance(n, ast.FunctionDef)]
    defs += [(f"{c.name}.{m.name}", m, 1) for c in tree.body
             if isinstance(c, ast.ClassDef) and _public(c.name)
             for m in c.body if isinstance(m, ast.FunctionDef) and _public(m.name)]
    out = []
    for name, fn, skip in defs:
        a = fn.args
        pos = (a.posonlyargs + a.args)[skip:]
        first = len(pos) - len(a.defaults)
        out += [(name, arg.arg, i) for i, arg in enumerate(pos) if i >= first]
        out += [(name, arg.arg, None) for arg, d in zip(a.kwonlyargs, a.kw_defaults)
                if d is not None]
    return out


def _called(func: ast.expr):
    return getattr(func, "id", getattr(func, "attr", None))


def _call_shapes(trees: list) -> dict:
    """Called name -> [(number of positional arguments, keyword names)] over
    every call by name or attribute.  A call of an `alias = functools.partial(
    f, ...)` is a call of f with the partial's arguments in front; a call with
    *args or **kwargs could pass anything and is left out."""
    aliases = {}
    for tree in trees:
        for node in ast.walk(tree):
            if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
                    and _called(node.value.func) == "partial"):
                fn, *args = node.value.args
                for target in node.targets:
                    aliases[target.id] = (_called(fn), len(args),
                                          {k.arg for k in node.value.keywords})
    shapes = {}
    for tree in trees:
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and all(k.arg for k in node.keywords)
                    and not any(isinstance(x, ast.Starred) for x in node.args)):
                name, n, keywords = aliases.get(_called(node.func),
                                                (_called(node.func), 0, set()))
                shapes.setdefault(name, []).append(
                    (n + len(node.args), keywords | {k.arg for k in node.keywords}))
    return shapes


def _never_omitted(tree: ast.Module, shapes: dict) -> list:
    """The defaults of tree's functions that no call in shapes omits."""
    return [f"{name}({param})" for name, param, at in _defaulted_parameters(tree)
            if not any(param not in keywords and (at is None or n <= at)
                       for n, keywords in shapes.get(name.rsplit(".", 1)[-1], []))]


def _never_set(tree: ast.Module, shapes: dict) -> list:
    """The defaults of tree's functions that no call in shapes sets."""
    return [f"{name}({param})" for name, param, at in _defaulted_parameters(tree)
            if not any(param in keywords or (at is not None and n > at)
                       for n, keywords in shapes.get(name.rsplit(".", 1)[-1], []))]


# functions whose signature a caller outside pwlab fixes: warnings.showwarning
# passes file and line only when it has them
FIXED_SIGNATURES = {"cli._show_warning"}


def _unserved_defaults(unserved) -> list:
    """unserved(tree, shapes) over the package modules, against the calls
    outside the tests."""
    shapes = _call_shapes(_callers())
    trees = {name: ast.parse((SRC / f"{name}.py").read_text()) for name in MODULES}
    assert sum(len(_defaulted_parameters(tree)) for tree in trees.values()) > 30
    return [f"{name}.{q}" for name, tree in trees.items() for q in unserved(tree, shapes)
            if f"{name}.{q.split('(')[0]}" not in FIXED_SIGNATURES]


def test_every_default_is_omitted_by_a_caller():
    # a default that every caller outside the tests overrides serves only the
    # tests: the parameter is required
    assert _unserved_defaults(_never_omitted) == []


def test_every_default_is_set_by_a_caller():
    # a default that no caller outside the tests overrides is a constant: the
    # parameter, and any branch it selects, serve only the tests
    assert _unserved_defaults(_never_set) == []


def test_default_detector_flags_a_default_every_caller_passes():
    tree = ast.parse("def solve(b, M=256, *, seed=None, tol=1e-8):\n    return b\n"
                     "class Frame:\n    def apply(self, x, p=2.0):\n        return x\n"
                     "    def size(self, k=1):\n        return k\n"
                     "def _helper(n=3):\n    return n\n"
                     "def run(f):\n    solve(1, 64, seed=3)\n    solve(1, M=8, seed=4)\n"
                     "    f.apply(1)\n    f.size(2)\n    solve(*f, **f)\n")
    assert _defaulted_parameters(tree) == [
        ("solve", "M", 1), ("solve", "seed", None), ("solve", "tol", None),
        ("_helper", "n", 0), ("Frame.apply", "p", 1), ("Frame.size", "k", 0)]
    assert _never_omitted(tree, _call_shapes([tree])) == [
        "solve(M)", "solve(seed)", "_helper(n)", "Frame.size(k)"]
    assert _never_set(tree, _call_shapes([tree])) == [
        "solve(tol)", "_helper(n)", "Frame.apply(p)"]


def test_default_detector_reads_a_call_through_a_partial():
    tree = ast.parse("import functools\n"
                     "def read(d, name, default=None, *, owner, ndim=0):\n    return d\n"
                     "_read = functools.partial(read, owner='x')\n"
                     "_first = functools.partial(read, {}, 'a')\n"
                     "def run(d):\n    _read(d, 'b', 1.0)\n    _first(ndim=1)\n")
    shapes = _call_shapes([tree])
    assert sorted(shapes["read"]) == [(2, {"ndim"}), (3, {"owner"})]
    assert _never_set(tree, shapes) == _never_omitted(tree, shapes) == []


def test_caller_detector_skips_a_same_named_local():
    # a local variable or parameter named like a public function is not a call
    tree = ast.parse("def inner(f, g):\n    return f\n"
                     "def lattice_sum(x):\n    inner = x * x\n    return inner\n"
                     "def pairing(inner):\n    return inner + lattice_sum(inner)\n"
                     "class Frame:\n    def synthesize(self):\n        return 1\n"
                     "    @property\n    def size(self):\n        return 2\n"
                     "    def _cache(self):\n        return self.size\n")
    assert _public_functions(tree) == ["inner", "lattice_sum", "pairing",
                                       "Frame.synthesize", "Frame.size"]
    refs = _references(tree)
    assert "lattice_sum" in refs and "size" in refs
    assert {"inner", "pairing", "synthesize"}.isdisjoint(refs)


def _unread_parameters(tree: ast.Module) -> list:
    """function(parameter), Class.method(parameter) or outer.inner(parameter),
    sorted, for each parameter of a function, method or lambda that its body
    never names; a method's first parameter is not counted."""
    unread = []
    todo = [(tree, "", False)]
    while todo:
        node, prefix, method = todo.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                todo.append((child, f"{prefix}{child.name}.", True))
            elif isinstance(child, _SCOPES):
                name = prefix + getattr(child, "name", "<lambda>")
                a = child.args
                params = [x.arg for x in a.posonlyargs + a.args + a.kwonlyargs
                          + [x for x in (a.vararg, a.kwarg) if x is not None]]
                body = child.body if isinstance(child.body, list) else [child.body]
                named = {n.id for part in body for n in ast.walk(part)
                         if isinstance(n, ast.Name)}
                unread += [f"{name}({p})" for p in params[method:] if p not in named]
                todo.append((child, f"{name}.", False))
            else:
                todo.append((child, prefix, method))
    return sorted(unread)


# parameters a caller outside the function fixes: warnings.showwarning passes
# all five, and perfbench passes the p that these two do not read
UNREAD = {"cli._show_warning": {"category", "filename", "lineno", "file", "line"},
          "nehari.nehari_solve": {"p"}, "toeplitz.identity_residuals": {"p"}}


def _excused(unread: str) -> bool:
    function, param = unread[:-1].split("(")
    if function.startswith("verify.check_"):    # run_all calls each as check(a, seed)
        return param in ("a", "seed")
    return param in UNREAD.get(function, ())


def test_every_parameter_is_read():
    # a parameter its function never reads only echoes what a caller passed
    unread = [f"{name}.{q}" for name in MODULES
              for q in _unread_parameters(ast.parse((SRC / f"{name}.py").read_text()))]
    assert [q for q in unread if not _excused(q)] == []


def test_parameter_detector_flags_an_unread_parameter():
    tree = ast.parse("def solve(b, a, p=2.0, *rest, **kw):\n    return kw\n"
                     "class Frame:\n    def apply(self, x, y):\n"
                     "        return [lambda z: x for _ in y]\n"
                     "def outer(n):\n    def inner(m):\n        return n\n"
                     "    return inner\n")
    assert _unread_parameters(tree) == [
        "Frame.apply.<lambda>(z)", "outer.inner(m)", "solve(a)", "solve(b)",
        "solve(p)", "solve(rest)"]


def _dataclass_fields(tree: ast.Module) -> list:
    """The fields of public dataclasses as Class.field."""
    names = []
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and _public(node.name) and any(
                ast.unparse(d.func if isinstance(d, ast.Call) else d)
                in ("dataclass", "dataclasses.dataclass") for d in node.decorator_list):
            names += [f"{node.name}.{f.target.id}" for f in node.body
                      if isinstance(f, ast.AnnAssign) and isinstance(f.target, ast.Name)]
    return names


def _attribute_reads(tree: ast.Module) -> set:
    """Attribute names a module reads (an assignment to one is not a read)."""
    return {n.attr for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}


def test_public_dataclass_fields_have_a_reader():
    # a field only the tests read is a value the package computes for no one;
    # a module that calls asdict reads every field of its own dataclasses
    reads = set().union(*(_attribute_reads(tree) for tree in _callers()))
    trees = {name: ast.parse((SRC / f"{name}.py").read_text()) for name in MODULES}
    fields = [f"{name}.{q}" for name, tree in trees.items()
              if "asdict" not in _references(tree) for q in _dataclass_fields(tree)]
    assert len(fields) > 30
    assert [q for q in fields if q.rsplit(".", 1)[1] not in reads] == []


def test_dataclass_field_detector_flags_an_unread_field():
    tree = ast.parse("import dataclasses\nfrom dataclasses import dataclass\n"
                     "@dataclass\nclass Result:\n    value: float\n    spare: int\n"
                     "    LIMIT = 3\n    def twice(self):\n        return 2 * self.value\n"
                     "@dataclasses.dataclass(frozen=True)\nclass Pair:\n    left: int\n"
                     "@dataclass\nclass _Hidden:\n    inner: int\n"
                     "class Plain:\n    label: str\n"
                     "def fill(r):\n    r.spare = 1\n    return r\n")
    assert _dataclass_fields(tree) == ["Result.value", "Result.spare", "Pair.left"]
    reads = _attribute_reads(tree)
    assert "value" in reads
    assert {"spare", "left"}.isdisjoint(reads)


def test_private_name_detector_flags_a_stray_helper():
    tree = ast.parse("_LIMIT = 3\n_used = 1\ndef _stale():\n    pass\n"
                     "def run():\n    return _used\n")
    assert _private_definitions(tree) == ["_LIMIT", "_used", "_stale"]
    assert {"_LIMIT", "_stale"}.isdisjoint(_references(tree))
    assert "_used" in _references(tree)


def _functions(module):
    """Functions and classes defined in module, with the classes' methods
    and properties."""
    for obj in vars(module).values():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield obj
        elif inspect.isclass(obj):
            yield obj
            for m in vars(obj).values():
                m = m.fget if isinstance(m, property) else m
                if inspect.isfunction(m):
                    yield m


@pytest.mark.parametrize("name", MODULES)
def test_annotations_resolve(name):
    module = importlib.import_module(
        "pwlab" if name == "__init__" else f"pwlab.{name}")
    checked = 0
    for obj in _functions(module):
        typing.get_type_hints(obj)
        checked += 1
    assert checked > 0 or name == "__init__"


def _shift_calls(name: str) -> list:
    tree = ast.parse((SRC / f"{name}.py").read_text())
    return [f"{name}.py:{node.lineno}" for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and _called(node.func) in ("fftshift", "ifftshift")]


def test_fft_order_lives_in_grid():
    # every lattice array is in natural order, bin j at (j - n/2) dxi; only
    # grid's transforms move between it and np.fft's order
    assert _shift_calls("grid")
    assert [c for name in MODULES if name != "grid" for c in _shift_calls(name)] == []


def test_unused_import_detector_flags_a_stray_name():
    tree = ast.parse("from .grid import Grid, lp_norm\n"
                     "import numpy as np\n"
                     "def f(g: Grid):\n    return np.ones(3)\n")
    assert _unused_imports(tree) == ["lp_norm (line 1)"]
