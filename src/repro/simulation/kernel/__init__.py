"""Composable kernel: per-component lowering for the fast path.

Replaces the monolithic single-supercapacitor ``_fastpath`` kernel with a
component lowering protocol (:mod:`~repro.simulation.kernel.protocol`)
and a composition/driver layer (:mod:`~repro.simulation.kernel.plan`).
Every component type — storage chemistries, converters and trackers,
managers, the node — exposes a ``lower_kernel(dt)`` hook emitting
specialized per-step closures, so *every* Table I system (A–G) executes
on the kernel with recorded columns bit-for-bit identical to the legacy
per-step path. See ``docs/kernel.md`` for the protocol and for how to
add a lowering to a new component type.

Two further targets build on the same lowerings: :mod:`.batched` steps
same-topology scenario grids in lockstep as numpy state vectors, and
:mod:`.codegen` fuses a single-supercapacitor / P&O plan into one flat
compiled step function (see ``docs/codegen.md``).

Only :mod:`.protocol` is imported eagerly (it has no repro dependencies,
so component modules can import it without cycles); the plan layer loads
on first attribute access.
"""

from .protocol import CapabilityReport, LoweringUnsupported

__all__ = [
    "CapabilityReport",
    "LoweringUnsupported",
    "KernelPlan",
    "eligible",
    "why_ineligible",
    "run_plan",
    "BatchedPlan",
    "batch_capability_report",
    "batch_eligible",
    "why_batch_ineligible",
    "run_batched",
    "prepare_codegen",
    "codegen_stats",
    "clear_codegen_cache",
]

_PLAN_EXPORTS = ("KernelPlan", "eligible", "why_ineligible", "run_plan")
_BATCHED_EXPORTS = ("BatchedPlan", "batch_capability_report",
                    "batch_eligible", "why_batch_ineligible",
                    "run_batched", "group_signature")
_CODEGEN_EXPORTS = ("prepare_codegen", "codegen_stats",
                    "clear_codegen_cache")


def __getattr__(name: str):
    if name in _PLAN_EXPORTS:
        from . import plan
        return getattr(plan, name)
    if name in _BATCHED_EXPORTS:
        from . import batched
        return getattr(batched, name)
    if name in _CODEGEN_EXPORTS:
        from . import codegen
        return getattr(codegen, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
