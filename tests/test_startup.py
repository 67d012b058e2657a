"""Start-up cost: what a fresh interpreter loads for each entry point.

Every package resolves its public names when read (repro._lazy)
and the CLI imports a subcommand's dependencies inside its handler, so
the schedule search never loads numpy, asyncio or the serving stack.
No command loads numpy, and no replay, what-if, trace, optimize or
lint run loads OpenSSL. Each check runs in a fresh interpreter -- this
process has long since imported everything -- and module loading is
deterministic, so the counts are exact.
"""

import importlib.util
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
    # The --json write takes the plain path without the trace module.
    assert "repro.workloads.traces" not in modules
    assert not any(name.startswith(("repro.sim", "repro.distrib"))
                   or name == "repro.serve" for name in modules)


def test_lint_run_loads_no_heavy_module(tmp_path):
    target = SRC / "repro" / "units.py"
    modules = loaded_modules(
        "from repro.cli import main\n"
        f"assert main(['lint', {str(target)!r}]) == 0",
        tmp_path)
    assert [name for name in HEAVY if name in modules] == []


def test_replay_run_loads_no_asyncio(tmp_path):
    modules = loaded_modules(
        "from repro.cli import main\n"
        "assert main(['replay', '--case', 'i', '--llm', '1B',\n"
        "             '--servers', '16', '--duration', '1']) == 0",
        tmp_path)
    assert "asyncio" not in modules


def test_serial_sweep_loads_no_process_pool(tmp_path):
    """The process backend imports its pool inside ``run()``."""
    modules = loaded_modules(
        "from repro.cli import main\n"
        "assert main(['sweep', '--case', 'i', '--llms', '1B',\n"
        "             '--servers', '16', '--backend', 'serial']) == 0",
        tmp_path)
    assert [name for name in ("multiprocessing",
                              "concurrent.futures.process")
            if name in modules] == []


#: Runs that need no numpy. Serving runs whose traces draw from
#: ``repro.sim.rng``: a seeded replay on the CLI's default (sampled)
#: decode-length path, a small what-if grid, and a Case III replay,
#: which samples retrieval positions per request. And ``repro trace``'s
#: analytics (burstiness, decode percentiles, the per-tier table) on an
#: identity-carrying file that ``NUMPY_FREE_SETUP`` writes first.
NUMPY_FREE_RUNS = {
    "trace": ["trace", "tiered.jsonl"],
    "replay": ["replay", "--case", "i", "--llm", "8B", "--servers", "16",
               "--scenario", "poisson", "--duration", "2", "--seed", "3"],
    "whatif": ["whatif", "--case", "i", "--llm", "8B", "--servers", "16",
               "--scenario", "diurnal", "--duration", "2", "--seed", "1",
               "--schedules", "2", "--replicas", "2", "--backend",
               "serial", "--workers", "1"],
    "case-iii": ["replay", "--case", "iii", "--llm", "8B", "--servers",
                 "16", "--duration", "2"],
}

#: Code a case runs first, in the same numpy-blocked interpreter.
NUMPY_FREE_SETUP = {
    "trace": (
        "import json\n"
        "with open('tiered.jsonl', 'w') as handle:\n"
        "    for i in range(40):\n"
        "        handle.write(json.dumps({\n"
        "            'arrival': i * 0.25 + (i % 3) * 0.07,\n"
        "            'decode_len': 16 + (i % 7) * 9,\n"
        "            'user_id': f'u{i % 5}',\n"
        "            'session_id': f'u{i % 5}-{i // 10}',\n"
        "            'tier': ('free', 'paid')[i % 2]}) + '\\n')\n"),
}


#: Runs that must not load OpenSSL: the numpy-free runs, a closed-loop
#: population on a fleet, ``optimize``, and ``lint``. They hash traces
#: and what-if cells with ``repro._digest``'s built-in SHA-256; lint
#: hashes nothing and writes nothing.
OPENSSL_FREE_RUNS = {
    **NUMPY_FREE_RUNS,
    "closed-loop": ["replay", "--case", "i", "--llm", "1B", "--servers",
                    "16", "--duration", "2", "--replicas", "2",
                    "--population", "users=8,think=0.3,tiers=free-paid"],
    "optimize": ["optimize", "--case", "i", "--llm", "1B", "--servers",
                 "16"],
    "lint": ["lint", str(SRC / "repro" / "sim" / "rng.py")],
}

#: The modules through which OpenSSL would load.
OPENSSL = ("_hashlib", "_ssl")

BUILTIN_SHA256 = any(importlib.util.find_spec(name) is not None
                     for name in ("_sha2", "_sha256"))


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
        f"{NUMPY_FREE_SETUP.get(name, '')}"
        "from repro.cli import main\n"
        f"assert main({NUMPY_FREE_RUNS[name]!r}) == 0\n"
        "del sys.modules['numpy']",
        tmp_path)
    assert [m for m in modules if m.partition(".")[0] == "numpy"] == []


@pytest.mark.skipif(not BUILTIN_SHA256, reason=(
    "this interpreter has no built-in SHA-256 (_sha2 or _sha256), so "
    "repro._digest falls back to hashlib, which loads OpenSSL"))
@pytest.mark.parametrize("name", sorted(OPENSSL_FREE_RUNS))
def test_runs_load_no_openssl(tmp_path, name):
    modules = loaded_modules(
        f"{NUMPY_FREE_SETUP.get(name, '')}"
        "from repro.cli import main\n"
        f"assert main({OPENSSL_FREE_RUNS[name]!r}) == 0",
        tmp_path)
    assert [m for m in OPENSSL if m in modules] == []
    if name == "lint":
        # A lint run leaves its working directory empty.
        assert list(tmp_path.iterdir()) == []
