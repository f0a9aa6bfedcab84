"""Fault injection and the self-healing advice runtime.

``repro.faults`` stresses the advice pipeline the way the paper's model
never has to: advice bits get flipped/erased/truncated/swapped, messages
get dropped/duplicated/delayed, nodes crash — all deterministically from a
seeded :class:`FaultPlan` — and the :class:`RobustRunner` heals the damage
with radius-bounded local repair before ever considering a global
re-solve.  :func:`run_campaign` drives the seeded chaos campaign the CI
``repair`` job and ``benchmarks/bench_robustness.py`` share.
"""

from .inject import CRASHED, FaultInjector, InjectedFault, NetworkFaults
from .plan import FaultPlan
from .runner import RobustRunner
from .campaign import run_campaign

__all__ = [
    "CRASHED",
    "FaultInjector",
    "FaultPlan",
    "InjectedFault",
    "NetworkFaults",
    "RobustRunner",
    "run_campaign",
]
