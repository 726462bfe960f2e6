"""Every name a module or script imports is used in it, and the engine never imports the oracles.

Package modules re-export through ``__init__.py``, which is exempt; every
other file under ``src/grwsim``, ``scripts`` and ``tests`` must use each
imported name at least once outside its import statement.  The reference
computations in ``oracles.py`` are what engine output is checked against,
so only the acceptance criteria and the package's re-exports import them:
a statistic's target never comes from the code it checks.

The package needs only numpy.  No module under ``src/grwsim`` imports
SciPy, not even inside a function, and ``[project].dependencies`` names
numpy alone; SciPy comes with the ``test`` extra, for the references the
tests compare against (``tests/quad_oracle.py``, ``scipy.stats``).  So a
run in a fresh interpreter must load no ``scipy`` module, and neither must
criterion 8, which compares the branch posterior with a fine grid.  A
one-worker run starts no process pool, so it loads no ``multiprocessing``
either.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(
    p
    for folder in (ROOT / "src" / "grwsim", ROOT / "scripts", ROOT / "tests")
    for p in folder.glob("*.py")
    if p.name != "__init__.py"
)


ORACLE_USERS = {"__init__.py", "acceptance.py"}
ENGINE = sorted(p for p in (ROOT / "src" / "grwsim").glob("*.py") if p.name not in ORACLE_USERS)


def imports_oracles(source: str) -> bool:
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            if any(alias.name.split(".")[-1] == "oracles" for alias in node.names):
                return True
        elif isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[-1] == "oracles":
                return True
            if any(alias.name == "oracles" for alias in node.names):
                return True
    return False


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_detector_finds_unused_names():
    source = "import math\nimport os.path\nfrom typing import Any, List\nx: List[int] = []\n"
    assert unused_imports(source) == ["line 1: math", "line 2: os", "line 3: Any"]


@pytest.mark.parametrize("path", FILES, ids=[str(p.relative_to(ROOT)) for p in FILES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_oracle_import_detector():
    for source in (
        "from .oracles import x",
        "from grwsim.oracles import x",
        "from . import oracles",
        "import grwsim.oracles",
        "def f():\n    from .oracles import x\n",
    ):
        assert imports_oracles(source), source
    assert not imports_oracles("from .ontology import flashes_of\nimport json\n")


@pytest.mark.parametrize("path", ENGINE, ids=[p.name for p in ENGINE])
def test_engine_never_imports_oracles(path):
    assert not imports_oracles(path.read_text())


def scipy_imports(source: str) -> list[int]:
    """Line numbers of every import of scipy or a scipy submodule, at any depth."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            continue
        if any(name == "scipy" or name.startswith("scipy.") for name in names):
            lines.append(node.lineno)
    return lines


def test_package_never_imports_scipy():
    assert scipy_imports("import scipy\ndef f():\n    from scipy.integrate import quad\n") == [1, 3]
    assert scipy_imports("import scipyx\nfrom .scipy import x\n") == []
    found = {
        p.name: scipy_imports(p.read_text()) for p in sorted((ROOT / "src" / "grwsim").glob("*.py"))
    }
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_runtime_dependencies_are_numpy_only():
    tomllib = pytest.importorskip("tomllib")  # the standard library has it from Python 3.11
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["dependencies"] == ["numpy>=1.24"]


# a cat, a 2-marble fresh GRWf count window (census chi-square and exact
# first-window law) and a free grid tail: every statistic a run computes
_RUN_CONFIGS = {
    "cat": "kind = cat\nc1_sq = 0.7\nontology = grwm\ntotal_time = 20\n",
    "marbles": (
        "kind = marbles\nn_marbles = 2\nc1_sq = 0.7\nontology = grwf\n"
        "history = fresh_preparation\nwindow_flashes = 10\ntotal_time = 20\n"
    ),
    "grid": (
        "kind = tail\nc1_sq = 0.99\nontology = grwm\nbackend = grid\ngrid_points = 512\n"
        "x_min = -30\nx_max = 50\nhamiltonian = free\nmass = 5\ntotal_time = 5\n"
        "density_times = 0, 5\n"
    ),
}

_RUN_WITHOUT = """
import sys
from pathlib import Path

import grwsim.cli

tmp = Path(sys.argv[1])
for cfg in sorted(tmp.glob("*.cfg")):
    argv = ["run", "--config", str(cfg), "--seed", "5", "--trajectories", "100",
            "--log-trajectories", "2", "--out", str(tmp / cfg.stem)]
    assert grwsim.cli.main(argv) == 0, cfg.stem
loaded = sorted(m for m in sys.modules if m == {package!r} or m.startswith({package!r} + "."))
assert not loaded, loaded
"""


def _src_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def _run_all_configs(tmp_path, package: str) -> None:
    """Run every _RUN_CONFIGS config with one worker in a fresh interpreter that must not load package."""
    for name, text in _RUN_CONFIGS.items():
        (tmp_path / f"{name}.cfg").write_text(text)
    proc = subprocess.run(
        [sys.executable, "-c", _RUN_WITHOUT.format(package=package), str(tmp_path)],
        env=_src_env(), capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    summary = (tmp_path / "marbles" / "summary.csv").read_text()
    assert "census_chi2_p" in summary and "grwf_inside_rate" in summary


def test_run_loads_no_scipy(tmp_path):
    _run_all_configs(tmp_path, "scipy")


def test_one_worker_run_loads_no_multiprocessing(tmp_path):
    _run_all_configs(tmp_path, "multiprocessing")


_CHECK_CRITERION_8 = """
import sys

import grwsim.cli

assert grwsim.cli.main(["check", "--criteria", "8"]) == 0
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not loaded, loaded
"""


def test_criterion_8_loads_no_scipy():
    proc = subprocess.run(
        [sys.executable, "-c", _CHECK_CRITERION_8], env=_src_env(), capture_output=True, text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
