"""The installed form: the wheel ``tests/local_wheel.py`` builds, installed by
pip into a fresh venv, runs through pip's ``qi-rangekit`` wrapper as the
checkout's ``main`` runs."""

import base64
import hashlib
import os
import subprocess
import sys
import zipfile
from pathlib import Path

import pytest

import local_wheel

# the installed-package commands, which CI runs only here, through pip's
# wrapper on every Python, each in a fresh directory after the ones before
# it: the version, a lookup in the bundled table, a 5-point figure-1 sweep,
# and a dumped config reloaded by range
COMMANDS = (("--version",), ("atten", "--freq", "60e9"),
            ("sweep", "--figure", "1", "--points", "5", "--output", "f1.csv"),
            ("--dump-config", "cfg.json"),
            ("--config", "cfg.json", "range", "--ns", "1e-2", "--freq", "1e12"))
# the launcher of the benchmark's CLI processes (perfbench/run.py), and the
# commands whose imports it is compared with pip's wrapper on
BOOTSTRAP = "from qi_rangekit.cli import entrypoint; entrypoint()"
IMPORT_COMMANDS = {"range": ("range", "--ns", "1e-2", "--freq", "1e12"),
                   "mc": ("mc", "--ns", "0.1", "--eta", "0.5", "--nb", "1", "--trials", "10000",
                          "--seed", "1"),
                   "covariance": ("covariance", "--ns", "1000", "--mode", "ci", "--oracle")}


def _environment(**extra):
    """This process's environment without PYTHONPATH, so a child imports
    only what its own interpreter finds, plus ``extra``."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    return {**env, **extra}


@pytest.fixture(scope="module")
def venv(tmp_path_factory):
    """A venv that sees the system's site-packages (numpy), with the wheel
    installed by pip from the file alone."""
    root = tmp_path_factory.mktemp("installed")
    wheel = local_wheel.build(root)
    subprocess.run([sys.executable, "-m", "venv", "--system-site-packages", "--without-pip",
                    str(root / "venv")], check=True, env=_environment())
    python = root / "venv" / "bin" / "python"
    # --ignore-installed: a copy of the package in the system's site-packages
    # (CI installs one) must not stand in for the wheel
    subprocess.run([sys.executable, "-m", "pip", "--python", str(python), "install",
                    "--no-index", "--no-deps", "--ignore-installed",
                    "--disable-pip-version-check", "-q", str(wheel)],
                   check=True, env=_environment(), capture_output=True)
    return root / "venv"


def _run_all(prefix, cwd, env):
    """(exit code, stdout, stderr) of each of COMMANDS, then the bytes of
    each file they wrote, by name."""
    cwd.mkdir()
    runs = [subprocess.run([*prefix, *argv], cwd=cwd, env=env, capture_output=True)
            for argv in COMMANDS]
    results = [(run.returncode, run.stdout, run.stderr) for run in runs]
    return results, {path.name: path.read_bytes() for path in sorted(cwd.iterdir())}


def test_the_wheel_records_each_file_it_holds_and_builds_to_the_same_bytes(tmp_path):
    (tmp_path / "again").mkdir()
    wheel = local_wheel.build(tmp_path)
    assert wheel.read_bytes() == local_wheel.build(tmp_path / "again").read_bytes()
    with zipfile.ZipFile(wheel) as archive:
        names = archive.namelist()
        [record] = [name for name in names if name.endswith(".dist-info/RECORD")]
        rows = [row.split(",") for row in archive.read(record).decode().splitlines()]
        assert [row[0] for row in rows] == names
        for name, digest, size in rows[:-1]:
            data = archive.read(name)
            expected = base64.urlsafe_b64encode(hashlib.sha256(data).digest()).rstrip(b"=")
            assert (digest, int(size)) == (f"sha256={expected.decode()}", len(data))
        assert rows[-1] == [record, "", ""]
    assert "qi_rangekit/data/gaseous_attenuation_sea_level.csv" in names
    assert "qi_rangekit/quantum_states.py" in names


def test_the_wrapper_runs_cis_commands_as_the_checkout_does(venv, tmp_path):
    env = _environment()
    where = subprocess.run([venv / "bin" / "python", "-c",
                            "import qi_rangekit; print(qi_rangekit.__file__)"],
                           env=env, capture_output=True, text=True, check=True).stdout
    assert where.startswith(str(venv))  # the venv's copy, not src/ or the system's
    # pip's wrapper names the venv's interpreter on its shebang line, or, for
    # a long path, on the exec line of a /bin/sh trampoline after it
    wrapper = venv / "bin" / "qi-rangekit"
    head = wrapper.read_text(encoding="utf-8").splitlines()[:2]
    assert any(str(venv / "bin" / "python") in line for line in head)
    installed, written = _run_all([wrapper], tmp_path / "installed", env)
    checkout = _run_all([sys.executable, "-m", "qi_rangekit.cli"], tmp_path / "checkout",
                        _environment(PYTHONPATH=str(local_wheel.REPO / "src")))
    assert (installed, written) == checkout
    assert [code for code, _, _ in installed] == [0] * len(COMMANDS)
    assert installed[0][1].decode().strip() == local_wheel.version()
    assert installed[2][1] == b"wrote 5 rows to f1.csv\n"
    assert sorted(written) == ["cfg.json", "f1.csv"] and written["f1.csv"].count(b"\n") == 6
    metadata = subprocess.run([venv / "bin" / "python", "-c",
                               "import importlib.metadata as m; print(m.version('qi-rangekit'))"],
                              env=env, capture_output=True, text=True, check=True).stdout
    assert metadata.strip() == local_wheel.version()


def _imports(python, args, cwd, *path):
    """The modules ``python -S -X importtime`` reports importing for ``args``,
    and its stdout, with ``path`` alone on ``PYTHONPATH``: ``-S`` keeps out
    the site hooks (a ``.pth`` file may import modules of its own), and so
    site-packages too."""
    run = subprocess.run([python, "-S", "-X", "importtime", *args], cwd=cwd, capture_output=True,
                         text=True, env=_environment(PYTHONPATH=os.pathsep.join(map(str, path))))
    assert run.returncode == 0, run.stderr
    report = [line.rsplit("|", 1) for line in run.stderr.splitlines()
              if line.startswith("import time:")]
    return {module.strip() for _, module in report[1:]}, run.stdout


@pytest.mark.parametrize("command", IMPORT_COMMANDS)
def test_the_wrapper_imports_the_bootstrap_s_modules_and_only_re_s_beyond(venv, tmp_path,
                                                                           command):
    # pip's wrapper runs `import re` and re.sub on argv[0], so an installed
    # command loads what the benchmark's bootstrap does, plus what re loads
    import numpy

    argv = IMPORT_COMMANDS[command]
    numpy_parent = Path(numpy.__file__).resolve().parents[1]
    site = venv / "lib" / f"python{sys.version_info[0]}.{sys.version_info[1]}" / "site-packages"
    python = venv / "bin" / "python"
    wrapper, out = _imports(python, [venv / "bin" / "qi-rangekit", *argv], tmp_path, site,
                            numpy_parent)
    bootstrap, checkout_out = _imports(python, ["-c", BOOTSTRAP, *argv], tmp_path,
                                       local_wheel.REPO / "src", numpy_parent)
    with_re, _ = _imports(python, ["-c", "import re"], tmp_path)
    assert out == checkout_out
    assert "qi_rangekit.cli" in bootstrap and "re" in with_re
    assert bootstrap <= wrapper
    assert wrapper - bootstrap <= with_re


def test_the_metadata_is_what_pyproject_declares():
    tomllib = pytest.importorskip("tomllib")  # from Python 3.11
    project = tomllib.loads((local_wheel.REPO / "pyproject.toml").read_text(encoding="utf-8"))
    project = project["project"]
    assert (project["name"], project["description"], project["requires-python"]) == (
        local_wheel.NAME, local_wheel.SUMMARY, local_wheel.REQUIRES_PYTHON)
    assert tuple(project["dependencies"]) == local_wheel.REQUIRES
    assert {extra: tuple(requirements) for extra, requirements in
            project["optional-dependencies"].items()} == local_wheel.EXTRAS
    assert project["scripts"] == local_wheel.SCRIPTS


def test_the_comparison_names_each_file_and_script_that_differs(tmp_path, capsys):
    wheel = local_wheel.build(tmp_path)
    assert local_wheel.differences(wheel, wheel) == []
    other = tmp_path / "other.whl"
    with zipfile.ZipFile(wheel) as source, zipfile.ZipFile(other, "w") as target:
        for name in source.namelist():
            data = source.read(name)
            if name == "qi_rangekit/cli.py":
                data += b"\n"
            elif name.endswith("entry_points.txt"):
                data = data.replace(b"entrypoint", b"main")
            elif name.endswith("METADATA"):
                data = data.replace(f"\nVersion: {local_wheel.version()}\n".encode(),
                                    b"\nVersion: 0.0.0\n")
            if name != "qi_rangekit/link_budget.py":
                target.writestr(name, data)
        target.writestr("qi_rangekit/extra.py", b"")
    lines = local_wheel.differences(wheel, other)
    assert [line.split(":")[0] for line in lines] == [
        "qi_rangekit/cli.py", "qi_rangekit/extra.py", "qi_rangekit/link_budget.py",
        "console scripts", "Version"]
    assert lines[1].startswith("qi_rangekit/extra.py: absent against ")
    assert lines[2].endswith(" against absent")
    assert lines[4] == f"Version: {local_wheel.version()} against Version: 0.0.0"
    (tmp_path / "out").mkdir()
    assert local_wheel.main([str(tmp_path / "out"), str(other)]) == 1
    assert capsys.readouterr().out.endswith(f"5 differences from {other}\n")
    assert local_wheel.main([str(tmp_path / "out"), str(wheel)]) == 0
    assert local_wheel.main([]) == 2
