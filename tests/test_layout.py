"""Layout of the package: every top-level function and class of
`src/sofl` is used somewhere in `src/sofl` outside its own definition, or
is exported by `sofl.__all__`. A helper only the tests call belongs in
`tests/`."""

import ast
import pathlib

import sofl

SRC = pathlib.Path(sofl.__file__).resolve().parent


def _uses(node) -> set[str]:
    """Every name read or attribute taken inside node."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def test_every_top_level_definition_is_used_in_src_or_exported():
    defs, uses = [], []  # (module, name, node); (node, names used in it)
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            uses.append((node, _uses(node)))
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.append((path.stem, node.name, node))
    assert len(defs) > 100
    unused = [
        f"{module}.{name}"
        for module, name, node in defs
        if name not in sofl.__all__ and not any(name in names for other, names in uses if other is not node)
    ]
    assert unused == []
