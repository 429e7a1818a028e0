"""Front-end branch unit: TAGE + BTB + RAS + history management.

The unit owns the :class:`~repro.predictors.base.PredictionContext` shared
with the value predictor, since VTAGE is indexed with the same global branch
and path history the branch predictor maintains (Section 6).

Being trace-driven, the simulator resolves each control µop immediately: the
unit predicts, compares against the actual outcome from the trace, trains,
and reports whether the front end would have been redirected.  Wrong-path
fetch is not simulated (standard trace-driven limitation, see DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.branch.btb import BranchTargetBuffer
from repro.branch.ras import ReturnAddressStack
from repro.branch.tage import TAGEBranchPredictor, TAGEConfig
from repro.isa.uop import MicroOp, OpClass
from repro.predictors.base import PredictionContext


@dataclass(slots=True)
class BranchResult:
    """Outcome of processing one control µop.

    Attributes:
        direction_mispredict: TAGE predicted the wrong direction (full
            branch misprediction penalty, resolved at execute).
        target_mispredict: direction fine but the target was unavailable or
            wrong (BTB/RAS miss).  Resolved early (decode) for direct
            branches; modelled with a shorter redirect penalty.
    """

    direction_mispredict: bool = False
    target_mispredict: bool = False


#: Shared no-redirect outcome.  The overwhelmingly common case — treat
#: returned :class:`BranchResult` instances as read-only.
_WELL_PREDICTED = BranchResult()

_BRANCH_INT = int(OpClass.BRANCH)
_JUMP_INT = int(OpClass.JUMP)
_CALL_INT = int(OpClass.CALL)
_RET_INT = int(OpClass.RET)


class BranchUnit:
    """Predict/train all control µops and maintain the shared history."""

    def __init__(self, tage_config: TAGEConfig | None = None):
        self.tage = TAGEBranchPredictor(tage_config)
        self.btb = BranchTargetBuffer()
        self.ras = ReturnAddressStack()
        self.context = PredictionContext()
        self.cond_branches = 0
        self.direction_mispredicts = 0
        self.target_mispredicts = 0

    def process(self, uop: MicroOp) -> BranchResult:
        """Predict, train and record history for one control µop.

        Returns a read-only :class:`BranchResult`; the common
        well-predicted outcome is a shared instance.
        """
        return self.process_scalar(
            int(uop.op_class), uop.pc, uop.taken, uop.target
        )

    def process_scalar(self, op: int, pc: int, taken: bool,
                       target: int) -> BranchResult:
        """:meth:`process` over bare column scalars.

        The scheduler's hot loop already holds the op class, PC, direction
        and target as columnar ints (:class:`~repro.isa.trace.TraceColumns`),
        so this path skips the µop object entirely — which also lets
        store-loaded traces simulate without ever materialising
        :class:`MicroOp` instances.  Same logic, same
        training, same results as :meth:`process`.
        """
        if op == _BRANCH_INT:
            self.cond_branches += 1
            tage = self.tage
            predicted, payload = tage.predict(pc, self.context)
            if predicted != taken:
                result = BranchResult(direction_mispredict=True)
                self.direction_mispredicts += 1
            elif taken and self._check_target(pc, target):
                result = BranchResult(target_mispredict=True)
                self.target_mispredicts += 1
            else:
                result = _WELL_PREDICTED
            tage.update(pc, taken, predicted, payload)
            # Speculative history equals actual history on the correct path
            # (mispredicted branches repair it before younger correct-path
            # µops refetch), so pushing the actual outcome is faithful.
            self.context.push_branch(taken, pc)
            return result
        if op == _JUMP_INT:
            if self._check_target(pc, target):
                self.target_mispredicts += 1
                return BranchResult(target_mispredict=True)
            return _WELL_PREDICTED
        if op == _CALL_INT:
            missed = self._check_target(pc, target)
            self.ras.push(pc + 4)
            if missed:
                self.target_mispredicts += 1
                return BranchResult(target_mispredict=True)
            return _WELL_PREDICTED
        if op == _RET_INT:
            predicted_target = self.ras.pop()
            if predicted_target != target:
                self.direction_mispredicts += 1
                # Full penalty: resolved late.
                return BranchResult(direction_mispredict=True)
            return _WELL_PREDICTED
        return _WELL_PREDICTED

    def _check_target(self, pc: int, target: int) -> bool:
        """BTB check for a taken control µop; installs on miss."""
        cached = self.btb.lookup(pc)
        if cached == target:
            return False
        self.btb.install(pc, target)
        return True
