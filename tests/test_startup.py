"""Start-up cost: what a fresh interpreter loads for each entry point.

Every package resolves its public names when read (repro._lazy)
and the CLI imports a subcommand's dependencies inside its handler, so
the schedule search never loads numpy, asyncio or the serving stack.
Each check runs in a fresh interpreter -- this process has long since
imported everything -- and module loading is deterministic, so the
counts are exact.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

#: Modules the search and lint paths must never load.
HEAVY = ("numpy", "asyncio", "multiprocessing")

#: ``repro`` modules loaded by a fresh ``import repro.cli``: the package,
#: its lazy-surface helper, the CLI and the error types (84 when every
#: package imported its whole surface eagerly).
CLI_IMPORT_MODULES = ["repro", "repro._lazy", "repro.cli", "repro.errors"]


def loaded_modules(code: str, cwd: Path) -> list:
    """The ``sys.modules`` names after running ``code`` in a fresh
    interpreter (its own stdout is discarded)."""
    script = (f"{code}\n"
              f"import json, sys\n"
              f"print(json.dumps(sorted(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
    out = subprocess.run([sys.executable, "-c", script], cwd=cwd, env=env,
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def repro_modules(modules: list) -> list:
    return [name for name in modules
            if name == "repro" or name.startswith("repro.")]


def test_import_repro_cli_loads_four_repro_modules(tmp_path):
    assert repro_modules(loaded_modules("import repro.cli", tmp_path)) \
        == CLI_IMPORT_MODULES


@pytest.mark.parametrize("statement", [
    "import repro",
    "import repro.cli",
    "import repro.rago.search",
])
def test_imports_load_no_heavy_module(tmp_path, statement):
    modules = loaded_modules(statement, tmp_path)
    assert [name for name in HEAVY if name in modules] == []


def test_optimize_run_loads_no_heavy_module(tmp_path):
    modules = loaded_modules(
        "from repro.cli import main\n"
        "assert main(['optimize', '--case', 'iv', '--llm', '70B',\n"
        "             '--servers', '16', '--json', 'out.json']) == 0",
        tmp_path)
    assert (tmp_path / "out.json").exists()
    assert [name for name in HEAVY if name in modules] == []
    assert not any(name.startswith(("repro.sim", "repro.distrib"))
                   or name == "repro.serve" for name in modules)


def test_lint_run_loads_no_heavy_module(tmp_path):
    target = SRC / "repro" / "units.py"
    modules = loaded_modules(
        "from repro.cli import main\n"
        f"assert main(['lint', {str(target)!r}, '--no-cache']) == 0",
        tmp_path)
    assert [name for name in HEAVY if name in modules] == []


def test_replay_run_loads_no_asyncio(tmp_path):
    modules = loaded_modules(
        "from repro.cli import main\n"
        "assert main(['replay', '--case', 'i', '--llm', '1B',\n"
        "             '--servers', '16', '--duration', '1']) == 0",
        tmp_path)
    assert "asyncio" not in modules


#: Serving runs whose traces draw from ``repro.sim.rng`` rather than
#: numpy: a seeded replay on the CLI's default (sampled) decode-length
#: path, a small what-if grid, and a Case III replay, which samples
#: retrieval positions per request.
NUMPY_FREE_RUNS = {
    "replay": ["replay", "--case", "i", "--llm", "8B", "--servers", "16",
               "--scenario", "poisson", "--duration", "2", "--seed", "3"],
    "whatif": ["whatif", "--case", "i", "--llm", "8B", "--servers", "16",
               "--scenario", "diurnal", "--duration", "2", "--seed", "1",
               "--schedules", "2", "--replicas", "2", "--backend",
               "serial", "--workers", "1"],
    "case-iii": ["replay", "--case", "iii", "--llm", "8B", "--servers",
                 "16", "--duration", "2"],
}


def test_rng_import_defers_the_exponential_tables(tmp_path):
    """Routing imports ``repro.sim.rng`` on every serving path, closed
    loops included; the ziggurat tables (built with ``decimal``) wait
    for the first exponential draw."""
    modules = loaded_modules(
        "import repro.sim.rng as rng\n"
        "assert rng._exp_tables is None", tmp_path)
    assert "decimal" not in modules


@pytest.mark.parametrize("name", sorted(NUMPY_FREE_RUNS))
def test_serving_runs_without_numpy(tmp_path, name):
    """With numpy made unimportable the run still succeeds, and no numpy
    module loads."""
    modules = loaded_modules(
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "from repro.cli import main\n"
        f"assert main({NUMPY_FREE_RUNS[name]!r}) == 0\n"
        "del sys.modules['numpy']",
        tmp_path)
    assert [m for m in modules if m.partition(".")[0] == "numpy"] == []
