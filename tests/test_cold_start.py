"""Import gate for a cold ``repro detect``.

A cold ``python -m repro detect`` must import only what detection uses:
heavy or unrelated packages are imported inside the code that needs them
(scipy only when the single-linkage detector fits, the corpus/eval/monitor/
streaming subpackages only by their own commands).  The budget is a ratio to
numpy's import time in the same log, so it holds on any hardware.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path
from typing import List, Tuple

import pytest

from repro.io import save_plant
from repro.plant import PlantConfig, simulate_plant

REPO_ROOT = Path(__file__).resolve().parents[1]

#: packages a default detect must never load
FORBIDDEN = (
    "scipy", "networkx", "repro.corpus", "repro.eval", "repro.monitor",
    "repro.streaming", "repro.sanitize", "tools.lint",
)
#: repro's own import plus everything it pulls in, as a multiple of numpy's
BUDGET = 3.0


def _importtime(stderr: str) -> List[Tuple[int, int, str]]:
    """(depth, cumulative µs, module) per ``-X importtime`` line, in order."""
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        __, cumulative, name = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue  # the column header
        depth = len(name) - len(name.lstrip(" "))
        entries.append((depth, int(cumulative), name.strip()))
    return entries


@pytest.fixture(scope="module")
def detect_log(tmp_path_factory) -> List[Tuple[int, int, str]]:
    tmp = tmp_path_factory.mktemp("cold")
    plant = save_plant(
        simulate_plant(PlantConfig(seed=3, n_lines=1, machines_per_line=2, jobs_per_machine=3)),
        tmp / "plant.npz",
    )
    argv = [sys.executable, "-X", "importtime", "-m", "repro", "detect",
            "--plant", str(plant), "--json", str(tmp / "reports.json")]
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    for __ in range(2):  # the first run writes the bytecode
        proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr[-2000:]
    return _importtime(proc.stderr)


def test_detect_imports_nothing_it_does_not_use(detect_log):
    loaded = {name for __, __, name in detect_log}
    offending = sorted(
        name for name in loaded
        if any(name == p or name.startswith(p + ".") for p in FORBIDDEN)
    )
    assert offending == []


def test_import_budget_relative_to_numpy(detect_log):
    numpy_us = next(cum for __, cum, name in detect_log if name == "numpy")
    first = next(i for i, (__, __, name) in enumerate(detect_log)
                 if name == "repro" or name.startswith("repro."))
    top = min(depth for depth, __, __ in detect_log)
    total_us = sum(cum for depth, cum, __ in detect_log[first:] if depth == top)
    assert total_us <= BUDGET * numpy_us, (
        f"imports from repro on take {total_us / numpy_us:.2f}x numpy's "
        f"{numpy_us / 1e3:.0f} ms (budget {BUDGET}x)"
    )


def test_package_resolves_its_names_on_first_access():
    code = "\n".join([
        "import sys, repro",
        "assert not [m for m in sys.modules if m.startswith('repro.')]",
        "assert set(repro.__all__) <= set(dir(repro))",
        "ns = {}",
        "exec('from repro import *', ns)",
        "assert all(name in ns for name in repro.__all__)",
        "assert ns['simulate_plant'] is sys.modules['repro.plant'].simulate_plant",
        "assert ns['eval'] is sys.modules['repro.eval']",
        "assert not hasattr(repro, 'no_such_name')",
    ])
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
