"""Locality & order-invariance linter for the LOCAL-model contract.

The reproduction's correctness rests on invariants no test asserts
directly: decoders are pure functions of their views (paper §3.2),
decoding is deterministic, and every ``mark_order_invariant`` claim —
which the simulation engine trusts for signature-keyed view memoization —
actually holds (§8).  This package verifies those invariants:

* :mod:`repro.analysis.rules` — the rule catalog (LOC001–LOC003,
  ORD001–ORD002, WVR001) and the AST checkers;
* :mod:`repro.analysis.engine` — the static engine: scans
  ``repro.schemas`` / ``repro.algorithms`` / ``repro.lower_bounds``
  without importing them, assigns contract contexts along the
  same-module call graph, and reports violations;
* :mod:`repro.analysis.fuzz` — the dynamic cross-checker: schemas re-run
  under identifier remaps/permutations, plus one registered harness per
  order-invariance claim;
* :mod:`repro.analysis.waivers` — justified exemptions
  (``@lint_waiver``, ``@uses_global_knowledge``);
* :mod:`repro.analysis.locality` — the locality certifier: static
  abstract interpretation of encoder/decoder bodies infers upper bounds
  on decode radius ``T`` and per-node advice bits ``beta``, which must
  equal each schema's declared :class:`~repro.advice.schema.LocalityContract`
  and dominate a dynamic tight-witness run (LOC101–LOC103,
  ``python -m repro certify``);
* :mod:`repro.analysis.cli` — ``python -m repro lint``.

See ``docs/static_analysis.md`` for the full catalog and waiver policy.
"""

from .engine import (
    DEFAULT_ROOTS,
    LintReport,
    apply_waiver_fixes,
    inspect_callable,
    run_lint,
    scan_module,
)
from .rules import RULES, Rule, Violation
from .waivers import lint_waiver, uses_global_knowledge, waivers_of

#: names served lazily from :mod:`repro.analysis.fuzz` — the fuzzer imports
#: the schema registry, so eagerly importing it here would make waiver
#: decorators unusable *inside* the schemas (circular import).
_FUZZ_EXPORTS = (
    "ORDER_INVARIANCE_CHECKED",
    "FuzzResult",
    "fuzz_all",
    "fuzz_schema",
    "run_order_harnesses",
)

#: names served lazily from :mod:`repro.analysis.locality` — the certifier
#: imports the schema registry for certify_all, so the same circular-import
#: hazard applies as for the fuzzer.
_LOCALITY_EXPORTS = (
    "LocalityCertificate",
    "StaticBounds",
    "certify_all",
    "certify_schema",
    "dynamic_witness",
    "infer_static_bounds",
)


def __getattr__(name: str):
    if name in _FUZZ_EXPORTS:
        from . import fuzz

        return getattr(fuzz, name)
    if name in _LOCALITY_EXPORTS:
        from . import locality

        return getattr(locality, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "DEFAULT_ROOTS",
    "FuzzResult",
    "LintReport",
    "LocalityCertificate",
    "ORDER_INVARIANCE_CHECKED",
    "RULES",
    "Rule",
    "StaticBounds",
    "Violation",
    "apply_waiver_fixes",
    "certify_all",
    "certify_schema",
    "dynamic_witness",
    "fuzz_all",
    "fuzz_schema",
    "infer_static_bounds",
    "inspect_callable",
    "lint_waiver",
    "run_lint",
    "run_order_harnesses",
    "scan_module",
    "uses_global_knowledge",
    "waivers_of",
]
