"""Every public name in the package has a caller inside the package.

A public top-level definition (function, class or module constant) or a
public method counts as called when some module of ``src/atomlink`` loads it
by name (``ast.Name``) or as an attribute (``ast.Attribute``) outside its own
body.  The ``__init__`` modules only re-export, so they do not count.  A
name that only tests use belongs in ``tests/oracles.py`` or in the test
itself; the few that stay are the API the README or an acceptance criterion
names, listed below with the reason.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "atomlink"

# qualified name -> why it stays without a caller in the package
ALLOWED = {
    "quantum.bell_project": "README scalar API; criterion 2's entanglement swap",
    "quantum.joint_outcome_probabilities": "README scalar API",
    "photonics.bsm.classify_coincidence": "criterion 1's coincidence taxonomy",
    "photonics.polarization.simulate_drift_with_control": "criterion 9's polarization model",
    "protocol.sequence.RunResult.dataset": "README run result; criterion 7 reads it",
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


def _loads(trees):
    """(name, node) of every load by name or attribute in the package."""
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                yield node.id, node, False
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                yield node.attr, node, True


def uncalled_names() -> list[str]:
    modules = list(_modules())
    loads = {}
    for name, node, is_attribute in _loads(tree for _, tree in modules):
        loads.setdefault(name, []).append((node, is_attribute))
    out = []
    for module, tree in modules:
        for qualname, name, is_method, definition in _definitions(module, tree):
            own = {id(n) for n in ast.walk(definition)}
            # a method is reached through an attribute; a top-level name either way
            if not any(id(node) not in own and (is_attribute or not is_method)
                       for node, is_attribute in loads.get(name, [])):
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
