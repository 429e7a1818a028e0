"""Common interface for all value predictors.

The simulator drives predictors through four hooks mirroring the hardware
pipeline placement argued for in the paper (prediction in the in-order
front-end, training/validation in the in-order back-end):

* :meth:`ValuePredictor.lookup` — at fetch, with the current speculative
  branch/path history.
* :meth:`ValuePredictor.speculate` — right after lookup, lets predictors
  maintain *speculative* per-instruction state (last value for Stride, local
  value history for FCM) for in-flight occurrences.
* :meth:`ValuePredictor.train` — at commit, with the architectural result.
* :meth:`ValuePredictor.on_squash` — on any pipeline flush; speculative
  state is discarded.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

from repro.util.history import FoldedHistorySet

KILOBYTE = 1000  # Table 1 reports sizes with 1 KB = 1000 bytes.

_GHIST_MASK = (1 << 256) - 1  # default global-history window

#: Full tag width used by the paper's untagged-component predictors
#: (Table 1 lists "Full (51)").
FULL_TAG_BITS = 51


@dataclass(slots=True)
class PredictionContext:
    """Front-end context available at prediction time.

    Attributes:
        ghist: Global conditional-branch outcome history; bit 0 is the most
            recent outcome.
        path: Hashed path history (low-order PC bits of recent branches).
        ghist_length: Number of valid bits currently in ``ghist``.
        folds: Lazily-attached :class:`~repro.util.history.FoldedHistorySet`
            of incrementally-maintained folded history registers, shared by
            every TAGE-family predictor indexing off this context.  Kept
            out of equality/repr: it is a cache of ``(ghist, path)``, not
            state of its own.
    """

    ghist: int = 0
    path: int = 0
    ghist_length: int = 0
    folds: FoldedHistorySet | None = field(default=None, compare=False,
                                           repr=False)

    def push_branch(self, taken: bool, pc: int, max_bits: int = 256) -> None:
        """Record one conditional-branch outcome and its path contribution."""
        bit = 1 if taken else 0
        old_ghist = self.ghist
        ghist = ((old_ghist << 1) | bit) & (
            _GHIST_MASK if max_bits == 256 else (1 << max_bits) - 1
        )
        self.ghist = ghist
        path = ((self.path << 3) ^ (pc & 0xFFFF)) & 0xFFFFFFFF
        self.path = path
        if self.ghist_length < max_bits:
            self.ghist_length += 1
        folds = self.folds
        if folds is not None:
            folds.push(bit, old_ghist, ghist, path, max_bits)

    def fold_set(self) -> FoldedHistorySet:
        """The attached folded-register set, created on first use."""
        folds = self.folds
        if folds is None:
            folds = self.folds = FoldedHistorySet(self.ghist, self.path)
        return folds

    def snapshot(self) -> "PredictionContext":
        return PredictionContext(self.ghist, self.path, self.ghist_length)


@dataclass(slots=True)
class Prediction:
    """Outcome of one predictor lookup.

    Attributes:
        value: The predicted 64-bit value.
        confident: True when the confidence counter is saturated; only then
            does the pipeline consume the prediction.
        payload: Opaque predictor-specific record carried from lookup to
            train (table indices, provider component, pre-update history...).
        source: Name of the component that produced the value (useful for
            hybrid attribution and debugging).
    """

    value: int
    confident: bool
    payload: object = None
    source: str = ""


class ValuePredictor(abc.ABC):
    """Abstract value predictor."""

    __slots__ = ("_parked_restore", "__weakref__")

    name = "abstract"

    @abc.abstractmethod
    def lookup(self, key: int, ctx: PredictionContext) -> Prediction | None:
        """Predict the value for predictor-key *key*; None when no entry hits."""

    def speculate(self, key: int, prediction: Prediction | None) -> None:
        """Update speculative fetch-time state after a lookup (optional)."""

    @abc.abstractmethod
    def train(self, key: int, actual: int, prediction: Prediction | None) -> None:
        """Commit-time training with the architectural *actual* value.

        *prediction* is the record returned by the matching ``lookup`` call
        (or None if the lookup was never performed, e.g. during warm-up
        fast-forward).
        """

    def on_squash(self) -> None:
        """Discard speculative state after a pipeline flush (optional)."""

    @abc.abstractmethod
    def storage_bits(self) -> int:
        """Total storage the predictor occupies, in bits (for Table 1)."""

    def storage_kb(self) -> float:
        """Storage in kilobytes, using the paper's 1 KB = 1000 B convention."""
        return self.storage_bits() / 8 / KILOBYTE

    def describe(self) -> str:
        return self.name

    def park(self, restore) -> None:
        """Leave the tables unbuilt until someone reads one.

        The kernel families are born parked at their constructed state
        (``restore`` is :func:`constructed`): building the lists costs
        more than most jobs, which run on the compiled kernel and never
        read them.  While parked, the predictor wears a twin of its class
        whose ``__getattr__`` (called only for attributes the instance
        lacks) switches back to its own class and runs ``restore(self)``
        before answering.  Its own class gains no hook: on CPython 3.11
        any ``__getattr__`` on a class slows every attribute load on its
        instances, ``lookup`` and ``train`` included.  And the kernel
        families declare ``__slots__``, since changing an instance's
        class turns its inline attribute values into a dict for good,
        which slows every later ``self.<attr>`` load.  Parking a parked
        predictor replaces its ``restore``.  *restore* must not hold the
        predictor, or the pair would outlive the run as a reference cycle
        while ``CoreModel.run`` pauses the collector.
        """
        if parked_restore(self) is None:
            self.__class__ = _parked_twin(type(self))
        self._parked_restore = restore


def constructed(predictor: ValuePredictor) -> None:
    """The ``restore`` of a predictor parked at its constructed state: its
    family's ``_build_tables`` sets the tables."""
    predictor._build_tables()


def parked_restore(predictor: ValuePredictor):
    """The ``restore`` a parked *predictor* holds, or ``None``."""
    return getattr(predictor, "_parked_restore", None)


#: Predictor class -> the twin class its instances wear while parked.
_TWINS: dict[type, type] = {}


def _unpark(predictor: ValuePredictor) -> None:
    restore = predictor._parked_restore
    del predictor._parked_restore
    predictor.__class__ = type(predictor)._unparked
    restore(predictor)


def _read_parked(self, name):
    _unpark(self)
    return getattr(self, name)


def _reduce_parked(self, protocol):
    _unpark(self)
    return self.__reduce_ex__(protocol)


def _parked_twin(cls: type) -> type:
    twin = _TWINS.get(cls)
    if twin is None:
        twin = _TWINS[cls] = type(cls)(cls.__name__, (cls,), {
            "__slots__": (),
            "__module__": cls.__module__,
            "__qualname__": cls.__qualname__,
            "__getattr__": _read_parked,
            "__reduce_ex__": _reduce_parked,
            "_unparked": cls,
        })
    return twin


def predictor_class(predictor: ValuePredictor) -> type:
    """``type(predictor)``, seen through the twin a parked predictor wears."""
    kind = type(predictor)
    return kind.__dict__.get("_unparked", kind)
