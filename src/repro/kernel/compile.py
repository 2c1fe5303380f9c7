"""The trace compiler: lower schedules into flat numpy arrays.

The object model steps one :class:`~repro.model.request.Request` at a
time through python dispatch — ideal for validation and introspection,
hopeless as a hot path.  The kernel instead *compiles* a schedule (or
a whole batch of generated replications) into three arrays:

* ``procs``     — ``(B, T)`` int32, the **bit index** of the issuing
  processor within the shared universe (see below);
* ``is_write``  — ``(B, T)`` bool, the request kind;
* ``lengths``   — ``(B,)`` int64, the true length of each trace.

``B`` is the batch size and ``T`` the *horizon* (the longest trace);
shorter traces are padded with ``procs = 0`` / ``is_write = False``
and masked out by ``lengths``.  Padding never contributes cost.

**Universe and bit order.**  All traces of a batch share one
*universe*: the sorted union of every processor appearing in any trace
plus the caller's ``extra_processors`` (initial schemes, primaries).
Bit ``i`` stands for ``universe[i]`` — the convention of
:func:`repro.types.mask_of` / :func:`repro.types.set_of_mask`, so the
kernel's masks and the offline DP's masks are directly comparable.
Processor ids need not be contiguous; compilation maps them to dense
bit indices.

The compiled form is immutable and picklable, so engine workers can
receive compiled batches instead of object traces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.exceptions import ConfigurationError
from repro.model.request import RequestKind
from repro.model.schedule import Schedule
from repro.types import (
    ProcessorId,
    ProcessorUniverse,
    processor_universe,
)

#: Sanity cap on the universe: the DA evaluator materializes a
#: ``(B, T, n)`` membership tensor, so enormous universes signal a
#: mis-use (the stepped path has no such limit).
MAX_UNIVERSE = 1024


def popcount(array: np.ndarray) -> np.ndarray:
    """Per-element population count of a non-negative integer array.

    Uses :func:`numpy.bitwise_count` when available (numpy >= 2.0) and
    falls back to a byte-table sum otherwise.
    """
    if hasattr(np, "bitwise_count"):
        return np.bitwise_count(array).astype(np.int64)
    table = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1).sum(
        axis=1
    )
    view = np.ascontiguousarray(array.astype(np.int64)).view(np.uint8)
    return table[view].reshape(*array.shape, 8).sum(axis=-1).astype(np.int64)


@dataclass(frozen=True)
class CompiledBatch:
    """A batch of schedules lowered into flat arrays.

    Instances come from :func:`compile_batch` / :func:`compile_schedule`
    and are consumed by :mod:`repro.kernel.evaluate`.
    """

    universe: ProcessorUniverse
    procs: np.ndarray
    is_write: np.ndarray
    lengths: np.ndarray

    # -- shape accessors ---------------------------------------------------

    @property
    def batch_size(self) -> int:
        return self.procs.shape[0]

    @property
    def horizon(self) -> int:
        """The padded trace length ``T`` (the longest trace)."""
        return self.procs.shape[1]

    @property
    def request_count(self) -> int:
        """Total non-padding requests across the batch."""
        return int(self.lengths.sum())

    def valid(self) -> np.ndarray:
        """``(B, T)`` bool: True at real requests, False at padding."""
        return np.arange(self.horizon)[None, :] < self.lengths[:, None]

    # -- universe mapping ---------------------------------------------------

    def bit_index(self, processor: ProcessorId) -> int:
        """The bit index of a processor id within the universe."""
        try:
            return self.universe.index(processor)
        except ValueError:
            raise ConfigurationError(
                f"processor {processor} is not in the compiled universe "
                f"{self.universe}"
            ) from None

    def bit_flags(self, processors: Iterable[ProcessorId]) -> np.ndarray:
        """``(n,)`` bool: membership of each universe bit in ``processors``."""
        flags = np.zeros(len(self.universe), dtype=bool)
        for processor in processors:
            flags[self.bit_index(processor)] = True
        return flags


def compile_batch(
    schedules: Sequence[Schedule],
    extra_processors: Iterable[ProcessorId] = (),
) -> CompiledBatch:
    """Compile a batch of schedules onto one shared universe.

    ``extra_processors`` widens the universe with ids that issue no
    request but matter to the evaluators (initial allocation schemes,
    DA's primary).  Traces of different lengths are padded to the
    longest; padding is masked by ``lengths``.
    """
    if not schedules:
        raise ConfigurationError("cannot compile an empty batch")
    issuers = [
        [request.processor for request in schedule.requests]
        for schedule in schedules
    ]
    universe = processor_universe(
        extra_processors, *(set(row) for row in issuers)
    )
    if len(universe) > MAX_UNIVERSE:
        raise ConfigurationError(
            f"compiled universe has {len(universe)} processors; the kernel "
            f"is limited to {MAX_UNIVERSE}"
        )
    batch = len(schedules)
    horizon = max(len(schedule) for schedule in schedules)
    procs = np.zeros((batch, horizon), dtype=np.int32)
    is_write = np.zeros((batch, horizon), dtype=bool)
    lengths = np.zeros(batch, dtype=np.int64)
    # One slice assignment per row: filling element by element would
    # cost a numpy scalar store per request.  The universe is sorted,
    # so a processor's bit index is its position in it.
    bit_of = np.asarray(universe)
    write = RequestKind.WRITE
    for row, (schedule, processors) in enumerate(zip(schedules, issuers)):
        lengths[row] = len(processors)
        procs[row, : len(processors)] = np.searchsorted(bit_of, processors)
        is_write[row, : len(processors)] = [
            request.kind is write for request in schedule.requests
        ]
    procs.setflags(write=False)
    is_write.setflags(write=False)
    lengths.setflags(write=False)
    return CompiledBatch(universe, procs, is_write, lengths)


def compile_schedule(
    schedule: Schedule,
    extra_processors: Iterable[ProcessorId] = (),
) -> CompiledBatch:
    """Compile a single schedule (a batch of one)."""
    return compile_batch([schedule], extra_processors)
