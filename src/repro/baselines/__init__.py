"""Related-work baselines for comparison against the paper's two-phase algorithms.

* ``load-balance`` — delay-oblivious zone load balancing (locally distributed
  cluster partitioning, the paper's refs [17, 25]).
* ``nearest-server`` — per-client / per-zone nearest-server selection (mirrored
  architecture style, the paper's ref [16], adapted to the zoned GDSA).

Importing this package registers the two solver baselines in
:mod:`repro.core.registry` so the experiment harness can refer to them by
name.
"""

from repro.baselines.load_balance import assign_zones_load_balanced, solve_load_balance
from repro.baselines.nearest_server import solve_nearest_server
from repro.core.registry import register_solver, solver_names

__all__ = [
    "assign_zones_load_balanced",
    "solve_load_balance",
    "solve_nearest_server",
]


def _register_baselines() -> None:
    if "load-balance" not in solver_names():
        register_solver("load-balance", solve_load_balance)
    if "nearest-server" not in solver_names():
        register_solver("nearest-server", solve_nearest_server)


_register_baselines()
