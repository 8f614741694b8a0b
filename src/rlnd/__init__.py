"""Exact planning models for product take-back (reverse logistics) networks.

The package builds mixed-binary linear programs over a three-tier collection
network (residence areas -> dropoffs -> consolidation -> material recovery),
solves them exactly with an embedded engine (or scipy), and reports
per-stage cost and emission breakdowns, cost/emission trade-off fronts, and
budget-protected robust counterparts.
"""

from .io import load_bundled_instance
from .multiobjective import SystemEpsilonFamily, epsilon_sweep
from .scenarios import solve_system, solve_user

__version__ = "0.1.0"

__all__ = ["SystemEpsilonFamily", "epsilon_sweep", "load_bundled_instance",
           "solve_system", "solve_user"]
