"""Contexts: ownership scope for buffers, programs and queues."""

from __future__ import annotations

import numpy as np

from ..telemetry.hooks import EventBus
from .device import Device
from .errors import MemObjectAllocationFailure, OutOfResources
from .memory import Buffer
from .types import MemFlags


class Context:
    """Execution context bound to a single device.

    (OpenCL contexts may span devices; the OpenDwarfs benchmarks always
    create single-device contexts, so that is what we model.)
    """

    def __init__(self, device: Device):
        self.device = device
        self._allocations: dict[int, Buffer] = {}
        self._allocated_bytes = 0
        self._peak_allocated_bytes = 0
        #: Completed-command hook bus: every queue created on this
        #: context publishes its events here (after the queue's own
        #: bus, before the process-global one).
        self.event_bus = EventBus()
        #: Attached :class:`repro.analysis.sanitize.Sanitizer`, or
        #: ``None``.  When set, buffer lifecycle and kernel launches on
        #: this context are instrumented (opt-in, zero cost otherwise).
        self.sanitizer = None
        #: Programs built on this context, in build order (the lint
        #: pass walks these to cross-check .cl sources vs Python bodies).
        self._programs: list = []
        #: Command queues created on this context (leak reporting).
        self._queues: list = []

    # ------------------------------------------------------------------
    def create_buffer(
        self,
        flags: MemFlags = MemFlags.READ_WRITE,
        size: int | None = None,
        hostbuf: np.ndarray | None = None,
    ) -> Buffer:
        """Allocate a device buffer (``clCreateBuffer``)."""
        return Buffer(self, flags=flags, size=size, hostbuf=hostbuf)

    def buffer_like(self, array: np.ndarray, flags: MemFlags = MemFlags.READ_WRITE) -> Buffer:
        """Allocate a buffer initialised from (a copy of) ``array``."""
        return Buffer(self, flags=flags | MemFlags.COPY_HOST_PTR, hostbuf=array)

    # ------------------------------------------------------------------
    @property
    def allocated_bytes(self) -> int:
        """Sum of all live device allocations.

        This is the quantity the paper prints to verify each
        benchmark's memory footprint against the targeted cache level.
        """
        return self._allocated_bytes

    @property
    def peak_allocated_bytes(self) -> int:
        """High-water mark of device allocations over the context's life."""
        return self._peak_allocated_bytes

    @property
    def live_buffers(self) -> int:
        return len(self._allocations)

    # ------------------------------------------------------------------
    def charge_allocation(self, nbytes: int) -> None:
        """Check ``nbytes`` against the device's global memory, then charge it.

        The one allocation-limit check: :class:`Buffer` calls it before
        it allocates backing storage, so an oversized request fails with
        the OpenCL error it models rather than a host ``MemoryError``,
        and the runner's per-device replay of a recorded allocation
        sequence calls it once per recorded buffer.

        Raises
        ------
        MemObjectAllocationFailure
            ``nbytes`` alone exceeds the device's global memory.
        OutOfResources
            ``nbytes`` on top of the live allocations exceeds it.
        """
        limit = self.device.global_mem_size
        if nbytes > limit:
            raise MemObjectAllocationFailure(
                f"single allocation of {nbytes} bytes exceeds the "
                f"{limit}-byte global memory of {self.device.name}"
            )
        if self._allocated_bytes + nbytes > limit:
            raise OutOfResources(
                f"allocating {nbytes} bytes would exceed the "
                f"{limit}-byte global memory of {self.device.name} "
                f"({self._allocated_bytes} bytes already allocated)"
            )
        self._allocated_bytes += nbytes
        self._peak_allocated_bytes = max(self._peak_allocated_bytes, self._allocated_bytes)

    def refund_allocation(self, nbytes: int) -> None:
        """Return ``nbytes`` charged by :meth:`charge_allocation`."""
        self._allocated_bytes -= nbytes

    def _register_allocation(self, buf: Buffer) -> None:
        """Track a buffer whose size :meth:`charge_allocation` accepted."""
        self._allocations[id(buf)] = buf
        if self.sanitizer is not None:
            self.sanitizer.on_alloc(buf)

    def _unregister_allocation(self, buf: Buffer) -> None:
        if id(buf) in self._allocations:
            del self._allocations[id(buf)]
            self.refund_allocation(buf.size)
            if self.sanitizer is not None:
                self.sanitizer.on_release(buf)

    def _register_program(self, program) -> None:
        """Record a successfully built program (lint introspection)."""
        if program not in self._programs:
            self._programs.append(program)

    def _register_queue(self, queue) -> None:
        self._queues.append(queue)

    @property
    def programs(self) -> tuple:
        """Every program built on this context, in build order."""
        return tuple(self._programs)

    # ------------------------------------------------------------------
    def leak_report(self) -> list[str]:
        """Human-readable description of each leaked resource.

        A *leak* is a buffer still alive, or a queue never released, at
        the point of the call — the state a well-behaved benchmark must
        not be in after its ``teardown()``.  Shared by
        :meth:`assert_no_leaks` and the runtime sanitizer.
        """
        leaks = [
            f"buffer of {buf.size} bytes still allocated"
            for buf in self._allocations.values()
        ]
        leaks.extend(
            f"command queue with {len(q.events)} recorded events never released"
            for q in self._queues if not q.released
        )
        return leaks

    def assert_no_leaks(self, include_queues: bool = False) -> None:
        """Raise ``AssertionError`` if resources are still live.

        The paper's footprint verification prints the sum of device
        allocations; this is its teardown-time complement.  Queues are
        excluded by default because the pre-existing benchmark life
        cycle has no queue-release step.
        """
        leaks = self.leak_report()
        if not include_queues:
            leaks = [l for l in leaks if not l.startswith("command queue")]
        if leaks:
            raise AssertionError(
                f"context on {self.device.name} leaked {len(leaks)} "
                "resource(s): " + "; ".join(leaks)
            )

    def release_all(self) -> None:
        """Release every live buffer (context teardown)."""
        for buf in list(self._allocations.values()):
            buf.release()

    def __repr__(self) -> str:
        return (
            f"<Context on {self.device.name}: {self.live_buffers} buffers, "
            f"{self._allocated_bytes} bytes>"
        )
