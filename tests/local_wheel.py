"""Build the package's wheel with the standard library alone, and compare two
wheels of it.

Usage, from the checkout root::

    python tests/local_wheel.py DIR             # write DIR/qi_rangekit-<version>-py3-none-any.whl
    python tests/local_wheel.py DIR OTHER.whl   # and compare it with another wheel

The wheel holds what setuptools packs from ``pyproject.toml``: every module
of ``src/qi_rangekit`` and the bundled ``data/*.csv`` (its package-data),
beside a ``.dist-info`` with ``METADATA``, ``WHEEL``, ``entry_points.txt``
(the ``qi-rangekit`` console script) and a ``RECORD`` of SHA-256 digests.
Every entry carries a fixed date, so one source gives the same bytes.  No
build backend runs, so it builds where ``pip install .`` cannot (a
setuptools older than the ``>=68`` that ``pyproject.toml`` asks for, or no
``wheel`` package); ``pip install --no-index --no-deps`` installs it.

Given a second wheel, the script compares the two: every file under
``qi_rangekit/`` by name and SHA-256, and the console scripts of their
``entry_points.txt``.  It prints each difference and exits 1 if there is
one.  CI compares the wheel built here with setuptools' own that way.
"""

from __future__ import annotations

import ast
import base64
import configparser
import hashlib
import sys
import zipfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "qi_rangekit"

# The [project] table of pyproject.toml, as the core metadata spells it;
# tests/test_local_wheel.py checks the two agree.
NAME = "qi-rangekit"
SUMMARY = ("Quantum- vs classical-illumination target detection: transmitter correlations, "
           "radiometry, atmospheric attenuation, SNR chain, and maximum-range solvers.")
REQUIRES_PYTHON = ">=3.10"
REQUIRES = ("numpy>=1.24",)
EXTRAS = {"test": ("pytest",)}
SCRIPTS = {"qi-rangekit": "qi_rangekit.cli:entrypoint"}

WHEEL = ("Wheel-Version: 1.0\nGenerator: tests/local_wheel.py\nRoot-Is-Purelib: true\n"
         "Tag: py3-none-any\n")
DATE = (1980, 1, 1, 0, 0, 0)  # the earliest date a zip entry holds


def version() -> str:
    """``qi_rangekit.__version__``, read from ``__init__.py`` without
    importing it, as ``pyproject.toml``'s dynamic version is."""
    for node in ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == [
                "__version__"]:
            return ast.literal_eval(node.value)
    raise ValueError(f"no __version__ in {PACKAGE / '__init__.py'}")


def metadata(version: str) -> str:
    lines = ["Metadata-Version: 2.1", f"Name: {NAME}", f"Version: {version}",
             f"Summary: {SUMMARY}", f"Requires-Python: {REQUIRES_PYTHON}"]
    lines += [f"Requires-Dist: {requirement}" for requirement in REQUIRES]
    for extra, requirements in EXTRAS.items():
        lines.append(f"Provides-Extra: {extra}")
        lines += [f'Requires-Dist: {requirement}; extra == "{extra}"'
                  for requirement in requirements]
    return "\n".join(lines) + "\n"


def entry_points() -> str:
    return "[console_scripts]\n" + "".join(f"{name} = {target}\n"
                                           for name, target in SCRIPTS.items())


def package_files() -> dict[str, bytes]:
    """The package's files as setuptools packs them, by name in the wheel."""
    paths = sorted([*PACKAGE.glob("*.py"), *PACKAGE.glob("data/*.csv")])
    return {f"qi_rangekit/{path.relative_to(PACKAGE).as_posix()}": path.read_bytes()
            for path in paths}


def _digest(data: bytes) -> str:
    return "sha256=" + base64.urlsafe_b64encode(hashlib.sha256(data).digest()).rstrip(
        b"=").decode()


def build(out_dir: Path) -> Path:
    """Write the wheel into ``out_dir`` and return its path."""
    ver = version()
    dist_info = f"qi_rangekit-{ver}.dist-info"
    files = package_files()
    files[f"{dist_info}/METADATA"] = metadata(ver).encode()
    files[f"{dist_info}/WHEEL"] = WHEEL.encode()
    files[f"{dist_info}/entry_points.txt"] = entry_points().encode()
    record = [f"{name},{_digest(data)},{len(data)}" for name, data in files.items()]
    files[f"{dist_info}/RECORD"] = "".join(
        f"{row}\n" for row in [*record, f"{dist_info}/RECORD,,"]).encode()
    wheel = Path(out_dir) / f"qi_rangekit-{ver}-py3-none-any.whl"
    with zipfile.ZipFile(wheel, "w", zipfile.ZIP_DEFLATED) as archive:
        for name, data in files.items():
            entry = zipfile.ZipInfo(name, DATE)
            entry.external_attr = 0o644 << 16
            archive.writestr(entry, data, zipfile.ZIP_DEFLATED)
    return wheel


def _contents(wheel: Path) -> tuple[dict[str, str], dict[str, str]]:
    """(SHA-256 of each file under ``qi_rangekit/`` by name, the console
    scripts of ``entry_points.txt``) of one wheel."""
    with zipfile.ZipFile(wheel) as archive:
        names = archive.namelist()
        digests = {name: hashlib.sha256(archive.read(name)).hexdigest()
                   for name in names if name.startswith("qi_rangekit/")}
        [points] = [name for name in names if name.endswith(".dist-info/entry_points.txt")]
        parser = configparser.ConfigParser()
        parser.read_string(archive.read(points).decode())
    return digests, dict(parser["console_scripts"])


def differences(wheel: Path, other: Path) -> list[str]:
    """One line per package file or console script in which the wheels differ."""
    (files, scripts), (other_files, other_scripts) = _contents(wheel), _contents(other)
    lines = [f"{name}: {files.get(name, 'absent')} against {other_files.get(name, 'absent')}"
             for name in sorted({*files, *other_files})
             if files.get(name) != other_files.get(name)]
    if scripts != other_scripts:
        lines.append(f"console scripts: {scripts} against {other_scripts}")
    return lines


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print("usage: python tests/local_wheel.py DIR [OTHER.whl]", file=sys.stderr)
        return 2
    wheel = build(Path(argv[0]))
    print(wheel)
    if len(argv) == 1:
        return 0
    lines = differences(wheel, Path(argv[1]))
    for line in lines:
        print(line)
    print(f"{len(lines)} differences from {argv[1]}")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
