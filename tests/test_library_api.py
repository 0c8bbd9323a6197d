"""The package keeps only what its commands run, plus a listed library API.

A public module-level function in ``src/``, and a public method or property
of a module-level class there, must be referenced by code in ``src/`` or be
listed in the README's "Library API" table, so a formula that only the tests
use lives in the tests (``tests/reference_chain.py``,
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


def public_functions(body: list[ast.stmt]) -> list[str]:
    """Names of the public functions defined in a module or class body (in a
    class, its methods and properties)."""
    return [
        node.name for node in body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    ]


def unreferenced(sources: dict[str, str]) -> tuple[list[str], list[str]]:
    """The public API in ``sources`` that no code in ``sources`` uses:
    ``module.function`` for each public module-level function whose name is
    used neither as a name nor as an attribute, and ``module.Class.method``
    for each public method or property of a module-level class whose name is
    not used as an attribute (``x.name``): a method is only reached through
    an attribute, and its name may also be a local's.  An import is not a
    use, and docstrings and comments are not code."""
    functions, methods, names, attributes = [], [], set(), set()
    for module, source in sources.items():
        tree = ast.parse(source)
        functions += [f"{module}.{name}" for name in public_functions(tree.body)]
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                methods += [f"{module}.{node.name}.{name}" for name in public_functions(node.body)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
    return (
        [name for name in functions if name.rsplit(".", 1)[1] not in names | attributes],
        [name for name in methods if name.rsplit(".", 1)[1] not in attributes],
    )


def listed_api() -> list[str]:
    """The ``module.function`` and ``module.Class.method`` entries of the
    README's "Library API" table."""
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    section = readme.partition("\n## Library API\n")[2].split("\n## ", 1)[0]
    return re.findall(r"^\| `qi_rangekit\.([\w.]+)` \|", section, flags=re.MULTILINE)


def test_every_public_function_is_called_or_listed():
    listed = set(listed_api())
    functions, _ = unreferenced(package_sources())
    assert [name for name in functions if name not in listed] == []


def test_every_public_method_is_called_or_listed():
    listed = set(listed_api())
    _, methods = unreferenced(package_sources())
    assert [name for name in methods if name not in listed] == []


def test_listed_api_names_public_functions():
    sources = package_sources()
    listed = listed_api()
    assert listed
    for name in listed:
        module, function = name.rsplit(".", 1)
        if module in sources:
            body = ast.parse(sources[module]).body
        else:  # module.Class.method
            module, cls = module.rsplit(".", 1)
            assert module in sources, name
            classes = [
                node for node in ast.parse(sources[module]).body
                if isinstance(node, ast.ClassDef) and node.name == cls
            ]
            assert classes and not cls.startswith("_"), name
            body = classes[0].body
        assert function in public_functions(body), name


def test_docstring_and_comment_mentions_are_not_callers():
    # positive control for the scan above
    source = (
        'def f():\n    """Wraps g and m.h."""\n    # g() is not called here\n    return k()\n\n\n'
        "def g():\n    pass\n\n\n"
        "def h():\n    pass\n\n\n"
        "def k():\n    pass\n\n\n"
        "def _private():\n    pass\n"
    )
    assert unreferenced({"m": source, "n": "from .m import g\nimport m\nm.h\n"})[0] == [
        "m.f", "m.g",
    ]


def test_a_local_named_like_a_method_is_not_a_caller():
    # positive control for the method scan: only ``x.name`` reaches a method
    source = (
        "class C:\n"
        "    def used(self):\n        threshold = 1.0\n        return threshold\n\n"
        "    def threshold(self):\n        pass\n\n"
        "    @property\n    def size(self):\n        pass\n\n"
        "    def _private(self):\n        pass\n\n\n"
        "def _f(c):\n    return c.used(), c.size\n"
    )
    assert unreferenced({"m": source}) == ([], ["m.C.threshold"])


def modules_opening_files(sources: dict[str, str]) -> list[str]:
    """The modules in ``sources`` whose code calls ``open`` (the builtin, or
    any ``x.open``, such as ``os.open`` or ``io.open``)."""
    return sorted(
        module for module, source in sources.items()
        if any(
            isinstance(node, ast.Call) and (
                isinstance(node.func, ast.Name) and node.func.id == "open"
                or isinstance(node.func, ast.Attribute) and node.func.attr == "open"
            )
            for node in ast.walk(ast.parse(source))
        )
    )


def test_one_module_opens_every_file():
    # errors holds the package's one reader and one writer, so every file
    # error names its path the same way
    assert modules_opening_files(package_sources()) == ["errors"]


def test_an_open_call_is_seen_wherever_it_is():
    # positive control for the scan above: a call, not a mention
    sources = {
        "a": "def f(p):\n    with open(p) as h:\n        return h.read()\n",
        "b": "import io\n\n\ndef g(p):\n    return io.open(p, 'w')\n",
        "c": '"""Files go through open()."""\n# open(p) is not called here\nopened = 1\n',
    }
    assert modules_opening_files(sources) == ["a", "b"]


NUMBER_RULE_TEXTS = ("must be a number", "is an integer too large for a float",
                     "must be an integer", "must be >= ", "must be at most ")


def number_rule_strings(sources: dict[str, str]) -> list[tuple[str, str]]:
    """(module, string) for each string constant in the code of ``sources``
    that holds one of :data:`NUMBER_RULE_TEXTS`, an f-string's literal parts
    included; docstrings are not code."""
    found = []
    for module, source in sources.items():
        tree = ast.parse(source)
        docstrings = {
            id(node.body[0].value) for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef))
            and ast.get_docstring(node) is not None
        }
        found += [
            (module, node.value) for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and id(node) not in docstrings
            and any(text in node.value for text in NUMBER_RULE_TEXTS)
        ]
    return sorted(found)


def test_one_module_formats_the_number_rule():
    # errors._as_number is the package's one number rule and
    # errors._require_count its one count rule; the one other text is
    # exact_exceedance's NaN threshold, which the number rule lets through
    assert number_rule_strings(package_sources()) == [
        ("detection_mc", "threshold must be a number, got "),
        ("errors", " is an integer too large for a float"),
        ("errors", " must be >= "),
        ("errors", " must be a number, got "),
        ("errors", " must be an integer, got "),
        ("errors", " must be at most "),
    ]


def test_a_number_rule_string_is_seen_wherever_it_is():
    # positive control for the scan above: code, not a docstring or comment
    sources = {
        "a": 'def f(x):\n    raise ValueError(f"{x!r} must be a number")\n',
        "b": 'TEXT = "n is an integer too large for a float"\n'
             'raise ValueError(f"{n} must be an integer")\n',
        "c": '"""Each x must be a number."""\n# must be a number\n\n\n'
             'def g():\n    """x is an integer too large for a float."""\n',
    }
    assert number_rule_strings(sources) == [
        ("a", " must be a number"), ("b", " must be an integer"),
        ("b", "n is an integer too large for a float"),
    ]


def package_imports(source: str) -> set[str]:
    """The modules of the package that ``source`` imports anywhere, a
    function body or a ``TYPE_CHECKING`` block included: ``from .x import y``
    and ``import qi_rangekit.x`` give ``x``, ``from . import x`` gives ``x``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level:
            found |= ({node.module.split(".")[0]} if node.module
                      else {alias.name for alias in node.names})
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("qi_rangekit"):
            found.add(node.module.partition(".")[2] or "__init__")
        elif isinstance(node, ast.Import):
            found |= {alias.name.partition(".")[2] or "__init__" for alias in node.names
                      if alias.name.split(".")[0] == "qi_rangekit"}
    return found


def test_the_number_rules_live_in_a_leaf_module():
    # errors holds the number and count rules and imports nothing of the
    # package, so the records under every other module can use them
    sources = package_sources()
    assert package_imports(sources["errors"]) == set()
    assert package_imports(sources["_record"]) == set()
    assert package_imports(sources["constants"]) == {"_record", "errors"}
    # the two modules that imported radiometry only for its rules
    assert "radiometry" not in package_imports(sources["atmosphere"])
    assert "radiometry" not in package_imports(sources["link_budget"])
    rules = sorted(
        (module, node.name) for module, source in sources.items()
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.FunctionDef)
        and (node.name == "_as_number" or node.name.startswith("_require_"))
    )
    assert rules == [("errors", name) for name in (
        "_as_number", "_require_count", "_require_finite", "_require_non_negative",
        "_require_positive")]


def test_a_package_import_is_seen_wherever_it_is():
    # positive control for the import scan above
    source = ("import math\nfrom . import config, cli\nfrom .errors import x\n\n\n"
              "def f():\n    from .atmosphere.sub import y\n    import qi_rangekit.radiometry\n"
              "    from qi_rangekit import z\n")
    assert package_imports(source) == {"config", "cli", "errors", "atmosphere", "radiometry",
                                       "__init__"}
