"""Import-footprint guard: the engine paths load only what they use.

SciPy backs only the exact MILP baseline and ``Topology.adjacency_matrix``;
``import repro`` and every engine, federation, replication and CLI-engine
path must neither need it nor load it lazily.  The serial paths must not
load the parallel runtime either (``concurrent.futures``,
``multiprocessing``), nor ``numpy.ma``, which plain ``np.unique`` pulls in
on numpy 2.x.  Each check runs in a fresh interpreter,
so modules imported by the rest of the suite cannot mask a regression.  Nor
may the engine steps be the first to import a numpy submodule: that cost
would land inside the first epoch or replication.

The parallel runtime is imported on first parallel use; a last fresh
interpreter runs each deferred path and checks it against its serial result.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])

IMPORTS = textwrap.dedent(
    """
    import contextlib
    import io
    import sys

    import repro
    import repro.cli
    from repro.dynamics.engine import ChurnSimulator
    from repro.dynamics.federation_engine import FederatedSimulator
    from repro.experiments.config import config_from_label
    from repro.experiments.figure4 import run_figure4
    from repro.world.federation import build_federation
    from repro.world.scenario import build_scenario
    """
)

#: The engine steps each subprocess runs after the imports: two churn epochs,
#: one federated epoch, one figure-4 replication, and the engine CLI
#: commands, all on the small ``4s-8z-80c-60cp`` world.
ENGINE_STEPS = textwrap.dedent(
    """
    LABEL = "4s-8z-80c-60cp"
    config = config_from_label(LABEL)
    churn = ChurnSimulator(
        scenario=build_scenario(config, seed=0), algorithms=["grez-grec"], seed=1
    )
    assert len(churn.run(2)) == 2
    federated = FederatedSimulator(
        world=build_federation(config, num_shards=2, seed=0), algorithms=["grez-grec"], seed=1
    )
    assert len(federated.run(1)) == 3  # two shards and the aggregate
    assert run_figure4(num_runs=1).pqos
    for argv in (
        ["simulate", "--config", LABEL, "--epochs", "2"],
        ["loadgen", "--config", LABEL, "--epochs", "2", "--warmup", "1"],
        ["federate", "--config", LABEL, "--shards", "2", "--epochs", "1"],
    ):
        with contextlib.redirect_stdout(io.StringIO()):
            assert repro.cli.main(argv) == 0, argv
    """
)

BLOCKED = (
    """
import sys

sys.modules["scipy"] = None
"""
    + IMPORTS
    + ENGINE_STEPS
)

UNBLOCKED = (
    """
import sys

import numpy

# numpy 1.x loads numpy.ma with numpy itself; then it is not ours to avoid.
numpy_loads_ma = "numpy.ma" in sys.modules
"""
    + IMPORTS
    + """
loaded_by_import = set(sys.modules)
"""
    + ENGINE_STEPS
    + """
heavy = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
assert not heavy, heavy
late = sorted(
    name for name in set(sys.modules) - loaded_by_import if name.split(".")[0] == "numpy"
)
assert not late, late
parallel = sorted(
    name for name in sys.modules if name.split(".")[0] in ("concurrent", "multiprocessing")
)
assert not parallel, parallel
if not numpy_loads_ma:
    masked = sorted(
        name for name in sys.modules if name == "numpy.ma" or name.startswith("numpy.ma.")
    )
    assert not masked, masked
"""
)

#: Each deferred parallel path, compared with its serial result: a 2-process
#: ``ordered_map`` and a pickle round trip of an RTT matrix published to
#: shared memory.
PARALLEL = (
    IMPORTS
    + """
import pickle

import numpy as np

from repro.utils.pool import ordered_map

def parallel_loaded():
    return sorted(
        name for name in sys.modules
        if name.split(".")[0] in ("concurrent", "multiprocessing")
    )

assert not parallel_loaded(), parallel_loaded()

tasks = list(range(-8, 8))
assert list(ordered_map(abs, tasks, workers=2)) == list(map(abs, tasks))
assert "concurrent.futures.process" in sys.modules

model = build_scenario(config_from_label("4s-8z-80c-60cp"), seed=0).delay_model
rtt = model.rtt.copy()
model.share_rtt()
try:
    clone = pickle.loads(pickle.dumps(model))
    assert np.array_equal(clone.rtt, rtt)
finally:
    model.unshare_rtt()
assert "multiprocessing.shared_memory" in sys.modules
"""
)


def _run(source: str) -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", source], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr


def test_engine_paths_run_with_scipy_blocked():
    _run(BLOCKED)


def test_engine_paths_load_no_optional_or_parallel_modules():
    _run(UNBLOCKED)


def test_deferred_parallel_paths_match_serial():
    _run(PARALLEL)
