"""Every public name and every optional parameter in the package has a caller inside it.

A public top-level definition (function, class or module constant) counts
as called when some module of ``src/atomlink`` loads it outside its own body
by bare name (``ast.Name``), or as an attribute of a name that module
imported as the defining module (``channel.X`` after ``from .memory import
channel``).  An attribute of anything else, such as a column of a table
that shares the name, does not count for it.  A public method counts as
called when some module loads it as an attribute outside its own body.  The
``__init__`` modules hold no code (a test below keeps them so) and do not
count.  A name that only tests use belongs in ``tests/oracles.py`` or in the test
itself; the few that stay are the API the README or an acceptance criterion
names, listed below with the reason.

An optional parameter (one with a default) of a top-level function or of a
method counts as set when some call in the package names the function and
passes the parameter by keyword, positionally, or through ``*args`` or
``**kwargs``; a recursive call counts, since it passes a second value.  A
parameter no caller sets has one value in use and belongs in the body as a
constant; the few that stay are listed in ``ALLOWED_PARAMETERS`` with the
reason.

No subpackage ``__init__`` imports or binds anything, and every import from
the package, in the package and in the tests, names the module that defines
the name, so that importing one module loads only the modules it names.
"""

import ast
from functools import cache
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "atomlink"

# qualified name -> why it stays without a caller in the package
ALLOWED = {
    "quantum.bell_project": "README scalar API; criterion 2's entanglement swap",
    "quantum.fidelity": "README scalar API; criterion 2 reads it",
    "quantum.joint_outcome_probabilities": "README scalar API",
    "photonics.bsm.classify_coincidence": "criterion 1's coincidence taxonomy",
    "photonics.polarization.simulate_drift_with_control": "criterion 9's polarization model",
    "protocol.sequence.RunResult.dataset": "README run result; criterion 7 reads it",
    "protocol.sequence.RunResult.states": "README run result; criterion 10 reads it",
}

# qualified function name and parameter -> why it stays without a caller that sets it
ALLOWED_PARAMETERS = {
    "cli.main(argv)": "the console script calls main() on sys.argv; tests pass argv",
}


def _modules():
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name != "__init__.py":
            module = ".".join(path.relative_to(PACKAGE).with_suffix("").parts)
            yield module, ast.parse(path.read_text(), filename=str(path))


def _public(name: str) -> bool:
    return not name.startswith("_")


def _definitions(module: str, tree: ast.Module):
    """(qualified name, bare name, is_method, defining node) of each public definition."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and _public(node.name):
            yield f"{module}.{node.name}", node.name, False, node
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef) and _public(sub.name):
                        yield f"{module}.{node.name}.{sub.name}", sub.name, True, sub
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and _public(target.id):
                    yield f"{module}.{target.id}", target.id, False, node


def _module_aliases(module: str, tree: ast.Module) -> dict:
    """Local name -> dotted path in the package of each name ``module`` imports from it."""
    package = module.split(".")[:-1]
    aliases = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        source = node.module.split(".") if node.module else []
        if node.level:
            parts = package[:len(package) - node.level + 1] + source
        elif source[:1] == [PACKAGE.name]:
            parts = source[1:]
        else:
            continue
        for alias in node.names:
            aliases[alias.asname or alias.name] = ".".join(parts + [alias.name])
    return aliases


def _loads(modules):
    """(name, node, via) of every load by name or attribute in the package.

    ``via`` is None for a bare-name load, the package module for an
    attribute of a module alias, and "" for any other attribute.
    """
    for module, tree in modules:
        aliases = _module_aliases(module, tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                yield node.id, node, None
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                owner = node.value.id if isinstance(node.value, ast.Name) else None
                yield node.attr, node, aliases.get(owner, "")


def uncalled_names() -> list[str]:
    modules = list(_modules())
    loads = {}
    for name, node, via in _loads(modules):
        loads.setdefault(name, []).append((node, via))
    out = []
    for module, tree in modules:
        for qualname, name, is_method, definition in _definitions(module, tree):
            own = {id(n) for n in ast.walk(definition)}
            # a method is reached through any attribute; a top-level name by
            # bare name or through an alias of its own module
            if not any(id(node) not in own
                       and (via is not None if is_method else via in (None, module))
                       for node, via in loads.get(name, [])):
                out.append(qualname)
    return out


def test_every_public_name_has_a_caller():
    unexplained = [name for name in uncalled_names() if name not in ALLOWED]
    assert not unexplained, ("public names that no module of the package uses: "
                             + ", ".join(unexplained))


def test_allowlist_is_current():
    uncalled = set(uncalled_names())
    stale = [name for name in ALLOWED if name not in uncalled]
    assert not stale, f"allowlisted names that have a caller or no longer exist: {stale}"


def _functions(tree: ast.Module):
    """(name, definition, bound) of each top-level function and method.

    A method is called bound, so its first parameter is never passed positionally.
    """
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef):
                    yield f"{node.name}.{sub.name}", sub, True
        elif isinstance(node, ast.FunctionDef):
            yield node.name, node, False


def _optional_parameters(definition: ast.FunctionDef, bound: bool):
    """(name, positional index or None) of each parameter that has a default."""
    args = definition.args
    positional = args.posonlyargs + args.args
    first_default = len(positional) - len(args.defaults)
    for index, arg in enumerate(positional):
        if index >= first_default:
            yield arg.arg, index - bound
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _sets(call: ast.Call, name: str, index) -> bool:
    """Whether ``call`` passes parameter ``name`` (positional ``index``, None if keyword-only)."""
    if any(k.arg in (name, None) for k in call.keywords):
        return True
    if index is None:
        return False
    return (len(call.args) > index
            or any(isinstance(a, ast.Starred) for a in call.args[:index + 1]))


def unset_parameters() -> list[str]:
    modules = list(_modules())
    calls = {}
    for _, tree in modules:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    out = []
    for module, tree in modules:
        for qualname, definition, bound in _functions(tree):
            for name, index in _optional_parameters(definition, bound):
                if not any(_sets(c, name, index) for c in calls.get(definition.name, [])):
                    out.append(f"{module}.{qualname}({name})")
    return out


def test_every_optional_parameter_is_set():
    unexplained = [p for p in unset_parameters() if p not in ALLOWED_PARAMETERS]
    assert not unexplained, ("optional parameters that no call in the package sets: "
                             + ", ".join(unexplained))


def test_parameter_allowlist_is_current():
    unset = set(unset_parameters())
    stale = [p for p in ALLOWED_PARAMETERS if p not in unset]
    assert not stale, f"allowlisted parameters that a call sets or that no longer exist: {stale}"


def test_subpackages_re_export_nothing():
    # an import in a subpackage's __init__ loads every module it names into
    # each process that imports any one of the subpackage's modules
    for path in set(PACKAGE.rglob("__init__.py")) - {PACKAGE / "__init__.py"}:
        body = ast.parse(path.read_text()).body
        held = [ast.unparse(n) for n in body
                if not (isinstance(n, ast.Expr) and isinstance(n.value, ast.Constant))]
        assert not held, f"{path.relative_to(PACKAGE)} holds {held}"


@cache
def _top_level_names(parts: tuple) -> set:
    """Names that the package module at dotted ``parts`` binds itself, imports aside."""
    path = PACKAGE.joinpath(*parts)
    path = path / "__init__.py" if path.is_dir() else path.with_suffix(".py")
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                names |= {n.id for n in ast.walk(target) if isinstance(n, ast.Name)}
    return names


def test_imports_name_the_defining_module():
    # in the package and in the tests, each name imported from the package
    # is a submodule of the module it is imported from or is defined there
    modules = list(_modules()) + [(path.stem, ast.parse(path.read_text()))
                                  for path in Path(__file__).parent.glob("*.py")]
    wrong = []
    for module, tree in modules:
        for dotted in _module_aliases(module, tree).values():
            *parts, name = dotted.split(".")
            target = PACKAGE.joinpath(*parts, name)
            if not (name in _top_level_names(tuple(parts)) or target.is_dir()
                    or target.with_suffix(".py").exists()):
                wrong.append(f"{module} imports {name} from {'.'.join([PACKAGE.name, *parts])}")
    assert not wrong, wrong
