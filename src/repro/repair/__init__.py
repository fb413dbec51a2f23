"""Fault-aware self-healing synthesis.

The closed loop over degraded hardware:

1. :func:`~repro.repair.detect.detect_faults` — replay a campaign
   under a fault plan in the tick engine and classify what the chip
   would exhibit;
2. :func:`~repro.repair.engine.repair` — mask the faults out of the
   switch structure and synthesize the masked spec, reporting which
   flows kept their prior path;
3. the service layer (``SynthesisService.submit_repair`` /
   ``ShardCoordinator.submit_repair``) — the same synthesis as
   journaled, exactly-once repair jobs correlated to the original job.
"""

from repro.repair.detect import FaultDetection, detect_faults
from repro.repair.engine import (
    RepairResult,
    as_mask,
    mask_spec,
    parse_faults,
    repair,
)

__all__ = [
    "FaultDetection",
    "RepairResult",
    "as_mask",
    "detect_faults",
    "mask_spec",
    "parse_faults",
    "repair",
]
