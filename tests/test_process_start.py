"""What a fresh ``repro`` process imports.

Each test runs a new interpreter: in this process every module is
already imported by earlier tests, so a mistyped lazy re-export, an
import cycle, or a command that imports modules it never runs would go
unseen here.
"""

import argparse
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser
from repro.dse import SweepSpec, open_store

SRC = str(Path(repro.__file__).resolve().parents[1])

PACKAGES = sorted(
    info.name for info in pkgutil.iter_modules(repro.__path__) if info.ispkg
)

#: Modules a local ``dse-launch --fleet`` runs none of: the HTTP server
#: and client (and the stdlib HTTP stack under them), the job queue,
#: journal and elastic fleet, the figure drivers, queries, and the
#: functional CVU model.
LAUNCH_NEVER_IMPORTS = (
    "http.server",
    "http.client",
    "urllib.request",
    "email",
    "repro.serve.server",
    "repro.serve.fleet",
    "repro.serve.client",
    "repro.serve.jobs",
    "repro.serve.journal",
    "repro.experiments",
    "repro.dse.queries",
    "repro.core.cvu",
)

#: Run ``dse-launch`` with ``_run_shard`` wrapped so each shard process
#: writes the modules it imported while sweeping its shard.
_TRACED_LAUNCH = """
import json, os, sys
import repro.serve.launch as launch
from repro.cli import main

run_shard = launch._run_shard

def traced(path, shard, vectorize):
    before = set(sys.modules)
    run_shard(path, shard, vectorize)
    added = sorted(set(sys.modules) - before)
    with open(os.path.join(sys.argv[1], f"shard-{os.getpid()}.json"), "w") as out:
        json.dump(added, out)

launch._run_shard = traced
code = main(sys.argv[2:])
print(json.dumps(sorted(sys.modules)))
sys.exit(code)
"""


def _python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def _loaded(names, prefixes) -> list[str]:
    """The ``names`` that are one of ``prefixes`` or a submodule of one."""
    return sorted(
        name
        for name in names
        if any(name == p or name.startswith(p + ".") for p in prefixes)
    )


def _subcommands() -> list[str]:
    (action,) = (
        action
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    return sorted(action.choices)


@pytest.mark.parametrize("command", _subcommands())
def test_every_subcommand_help_starts(command):
    done = _python("-m", "repro", command, "--help")
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith(f"usage: repro {command}")


@pytest.mark.parametrize("package", PACKAGES)
def test_star_import_resolves_every_export(package):
    # Before any access, the names ``dir`` lists beyond the package's
    # globals are the ones its lazy table serves: exactly ``__all__``.
    done = _python(
        "-c",
        "import json\n"
        f"import repro.{package} as package\n"
        "served = sorted(set(dir(package)) - set(vars(package)))\n"
        f"from repro.{package} import *\n"
        "print(json.dumps([served, sorted(package.__all__)]))",
    )
    assert done.returncode == 0, done.stderr
    served, exported = json.loads(done.stdout)
    assert exported
    assert served == exported


def test_open_store_imports_no_evaluator(tmp_path):
    done = _python(
        "-c",
        "import json, sys\n"
        "from repro.dse import open_store\n"
        "for path in sys.argv[1:]:\n"
        "    open_store(path)\n"
        "print(json.dumps(sorted(sys.modules)))",
        str(tmp_path / "s.jsonl"),
        str(tmp_path / "s.sqlite"),
    )
    assert done.returncode == 0, done.stderr
    assert _loaded(json.loads(done.stdout), ("numpy", "repro.sim")) == []


@pytest.fixture(scope="module")
def fleet_launch(tmp_path_factory):
    """One traced ``dse-launch --fleet 2``: (its directory, its stdout)."""
    tmp_path = tmp_path_factory.mktemp("launch")
    spec = SweepSpec.grid(
        workloads=("RNN", "LSTM"),
        platforms=("bpvec", "tpu", "bitfusion"),
        memories=("ddr4", "hbm2"),
    )
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec.to_dict()))
    store = tmp_path / "X.sqlite"
    done = _python(
        "-c",
        _TRACED_LAUNCH,
        str(tmp_path),
        "dse-launch",
        "--spec",
        str(spec_path),
        "--fleet",
        "2",
        "--store",
        str(store),
    )
    assert done.returncode == 0, done.stderr
    assert "12 evaluated, 0 store hits; 2 shard processes" in done.stdout
    assert len(open_store(store)) == 12
    return tmp_path, done.stdout


def test_fleet_launcher_imports_no_server(fleet_launch):
    _, stdout = fleet_launch
    launcher = json.loads(stdout.splitlines()[-1])
    assert _loaded(launcher, LAUNCH_NEVER_IMPORTS) == []


def test_fleet_shard_imports_nothing(fleet_launch):
    # Forked shards inherit the launcher's modules: sweeping a shard
    # imports nothing more (numpy.ma, say, on a first np.unique call).
    directory, _ = fleet_launch
    reports = sorted(directory.glob("shard-*.json"))
    assert len(reports) == 2
    for report in reports:
        assert json.loads(report.read_text()) == [], report.name
