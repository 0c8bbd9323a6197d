"""The package keeps only what its commands run, plus a listed library API.

A public module-level function in ``src/`` must be referenced by code in
``src/`` or be listed in the README's "Library API" table, so a formula that
only the tests use lives in the tests (``tests/reference_chain.py``,
``tests/reference_sampler.py``) rather than in the library.
"""

import ast
import re
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "qi_rangekit"


def package_sources() -> dict[str, str]:
    """Module name (``range_solver``, ...) -> source, for every module of the package."""
    return {
        ".".join(path.relative_to(PACKAGE).with_suffix("").parts): path.read_text(encoding="utf-8")
        for path in sorted(PACKAGE.rglob("*.py"))
    }


def unreferenced_functions(sources: dict[str, str]) -> list[str]:
    """``module.function`` for each public module-level function in
    ``sources`` whose name no code in ``sources`` uses, as a name or an
    attribute.  An import is not a use, and docstrings and comments are not
    code."""
    defined, used = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        defined += [
            f"{module}.{node.name}" for node in tree.body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
        ]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return [name for name in defined if name.rsplit(".", 1)[1] not in used]


def listed_api() -> list[str]:
    """The ``module.function`` entries of the README's "Library API" table."""
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    section = readme.partition("\n## Library API\n")[2].split("\n## ", 1)[0]
    return re.findall(r"^\| `qi_rangekit\.([\w.]+)` \|", section, flags=re.MULTILINE)


def test_every_public_function_is_called_or_listed():
    listed = set(listed_api())
    assert [name for name in unreferenced_functions(package_sources())
            if name not in listed] == []


def test_listed_api_names_public_functions():
    sources = package_sources()
    listed = listed_api()
    assert listed
    for name in listed:
        module, function = name.rsplit(".", 1)
        assert module in sources, name
        assert not function.startswith("_") and any(
            isinstance(node, ast.FunctionDef) and node.name == function
            for node in ast.parse(sources[module]).body
        ), name


def test_docstring_and_comment_mentions_are_not_callers():
    # positive control for the scan above
    source = (
        'def f():\n    """Wraps g and m.h."""\n    # g() is not called here\n    return k()\n\n\n'
        "def g():\n    pass\n\n\n"
        "def h():\n    pass\n\n\n"
        "def k():\n    pass\n\n\n"
        "def _private():\n    pass\n"
    )
    assert unreferenced_functions({"m": source, "n": "from .m import g\nimport m\nm.h\n"}) == [
        "m.f", "m.g",
    ]
