"""Layout of the package: every top-level function and class of
`src/sofl` is used somewhere in `src/sofl` outside its own definition, or
is one of the few exports kept for callers outside the package. A helper
only the tests call belongs in `tests/`."""

import ast
import pathlib

import sofl

SRC = pathlib.Path(sofl.__file__).resolve().parent

# Exports that nothing in `src/sofl` uses, each with the reason it stays.
UNUSED_EXPORTS = {
    "brute_fixed_radius": "the oracle reference that the tests hold per-radius solves against",
    "candidate_radii_discrete": "the discrete radii with their provenance; the solver takes `discrete_radii`",
    "candidate_radii_line": "the line radii with their provenance; the solver takes `line_radii`",
    "candidate_radii_tlines": "the t-lines radii with their provenance; the solver takes `tlines_radii`",
    "disk_weight": "the definition that the point-order sums cite",
    "format_instance": "the writer half of the file format's round trip",
    "line_contacts": "the chain contacts with their provenance; the solver takes `line_losses`",
}


def _uses(node) -> set[str]:
    """Every name read or attribute taken inside node."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def _unused() -> list[tuple[str, str]]:
    """(module, name) of every top-level function and class of `src/sofl`
    that no other top-level statement there uses."""
    defs, uses = [], []  # (module, name, node); (node, names used in it)
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            uses.append((node, _uses(node)))
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.append((path.stem, node.name, node))
    assert len(defs) > 100
    return [
        (module, name)
        for module, name, node in defs
        if not any(name in names for other, names in uses if other is not node)
    ]


def test_every_top_level_definition_is_used_in_src_or_exported():
    assert [f"{module}.{name}" for module, name in _unused() if name not in sofl.__all__] == []


def test_every_export_is_used_in_src_or_listed():
    assert sorted(name for _, name in _unused() if name in sofl.__all__) == sorted(UNUSED_EXPORTS)
