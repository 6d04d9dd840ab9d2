"""The project-specific lint passes behind ``fanstore-lint``.

Each module contributes one :class:`repro.analysis.core.LintPass`;
:func:`all_passes` is the registry the CLI and ``run_lint`` default to.
The rule catalogue lives in ``docs/static-analysis.md``.
"""

from __future__ import annotations

from repro.analysis.core import LintPass
from repro.analysis.passes.blocking import BlockingUnderLockPass
from repro.analysis.passes.catalogue import MetricCataloguePass
from repro.analysis.passes.deadline import DeadlinePropagationPass
from repro.analysis.passes.determinism import DeterminismPass
from repro.analysis.passes.durability import DurableWritePass
from repro.analysis.passes.errors import ErrorConventionsPass
from repro.analysis.passes.lock_order import LockOrderPass
from repro.analysis.passes.protocol import ProtocolConformancePass

__all__ = [
    "BlockingUnderLockPass",
    "DeadlinePropagationPass",
    "DeterminismPass",
    "DurableWritePass",
    "ErrorConventionsPass",
    "LockOrderPass",
    "MetricCataloguePass",
    "ProtocolConformancePass",
    "all_passes",
]


def all_passes() -> list[LintPass]:
    return [
        LockOrderPass(),
        BlockingUnderLockPass(),
        ProtocolConformancePass(),
        DeadlinePropagationPass(),
        ErrorConventionsPass(),
        DeterminismPass(),
        DurableWritePass(),
        MetricCataloguePass(),
    ]
