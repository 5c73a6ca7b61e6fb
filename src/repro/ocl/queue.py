"""Command queues: execution, ordering and modeled timing.

The queue is where the functional simulation (kernels really execute,
buffers really move bytes) meets the performance model (every command
is assigned a duration from :mod:`repro.perfmodel` and stamped onto a
monotonically advancing simulated device clock).

Commands execute synchronously in enqueue order (in-order queue, which
is all OpenDwarfs uses), but event dependencies are still honoured for
start-time computation so profiling timelines are consistent.
"""

from __future__ import annotations

import numpy as np

from ..devices.specs import DeviceSpec
from ..perfmodel import kernel_energy, kernel_time, noisy_samples, transfer_time_s
from ..telemetry.hooks import EventBus, GLOBAL_EVENT_BUS
from ..telemetry.metrics import default_registry
from .context import Context
from .errors import InvalidCommandQueue, InvalidContext, InvalidMemObject, InvalidValue
from .event import Event
from .memory import Buffer
from .ndrange import NDRange
from .program import Kernel
from .types import CommandExecutionStatus, CommandType, QueueProperties

#: Host-side cost of enqueueing a command before it is submitted to the
#: device, ns (argument marshalling, command buffer append).
ENQUEUE_OVERHEAD_NS = 1_500

#: Device time of a marker or barrier, ns: one clock tick, never
#: perturbed by the timing-noise model.
SYNC_COMMAND_NS = 1


def price_command(
    spec: DeviceSpec, command_type: CommandType, info: dict
) -> tuple[float | None, dict]:
    """Modeled device time of one command on ``spec``, before noise.

    The one pricing rule for every command: the live ``enqueue_*``
    methods and the runner's per-device replay of a recorded command
    log both come through here (via :meth:`CommandQueue.submit`).

    Parameters
    ----------
    spec : DeviceSpec
        The device the command is priced on.
    command_type : CommandType
        What the command does.
    info : dict
        The command's device-independent details: the kernel
        ``profile`` for launches, ``bytes`` moved for buffer commands.

    Returns
    -------
    (float or None, dict)
        Nominal seconds (``None`` for a marker or barrier, which takes
        :data:`SYNC_COMMAND_NS` without noise) and the event info the
        pricing adds: a kernel's ``breakdown``, ``energy_j`` and
        ``mean_power_w``.
    """
    if command_type is CommandType.ND_RANGE_KERNEL:
        breakdown = kernel_time(spec, info["profile"])
        energy = kernel_energy(spec, breakdown)
        return breakdown.total_s, {
            "breakdown": breakdown,
            "energy_j": energy.energy_j,
            "mean_power_w": energy.mean_power_w,
        }
    if command_type in (CommandType.WRITE_BUFFER, CommandType.READ_BUFFER):
        return transfer_time_s(spec, info["bytes"]), {}
    bandwidth = spec.memory.bandwidth_gbs * 1e9
    if command_type is CommandType.COPY_BUFFER:
        # on-device copies run at memory bandwidth (read + write)
        return 2 * info["bytes"] / bandwidth, {}
    if command_type is CommandType.FILL_BUFFER:
        return info["bytes"] / bandwidth, {}
    if command_type in (CommandType.MARKER, CommandType.BARRIER):
        return None, {}
    raise InvalidValue(f"no pricing rule for {command_type.value} commands")


class CommandQueue:
    """An in-order command queue with profiling.

    Parameters
    ----------
    context:
        The owning context; the queue targets its device.
    properties:
        ``PROFILING_ENABLE`` populates event timestamps (the harness
        always enables it, as LibSciBench requires).
    rng:
        Optional random generator; when given, each command's modeled
        duration is perturbed by the device's timing-noise model so
        repeated launches scatter like real measurements.
    """

    def __init__(
        self,
        context: Context,
        properties: QueueProperties = QueueProperties.PROFILING_ENABLE,
        rng: np.random.Generator | None = None,
    ):
        self.context = context
        self.device = context.device
        self.properties = properties
        self.rng = rng
        #: Simulated device clock, ns.  Starts nonzero so that a zero
        #: timestamp always means "not recorded".
        self.device_time_ns = 1_000
        #: Host-side enqueue clock: when each command was queued.
        self._host_time_ns = 1_000
        #: End of the most recently executed command (in-order chaining).
        self._last_end_ns = 1_000
        self.events: list[Event] = []
        #: Per-queue completed-command hooks (``clSetEventCallback``).
        self.event_bus = EventBus()
        self._released = False
        context._register_queue(self)

    # ------------------------------------------------------------------
    @property
    def released(self) -> bool:
        return self._released

    def release(self) -> None:
        """Release the queue (``clReleaseCommandQueue``).  Idempotent.

        Further enqueues raise :class:`InvalidCommandQueue`; recorded
        events remain readable (profiling outlives the queue handle in
        OpenCL too).
        """
        self._released = True

    def _check_queue_alive(self) -> None:
        if self._released:
            raise InvalidCommandQueue(
                f"command queue on {self.device.name} has been released"
            )

    @property
    def profiling_enabled(self) -> bool:
        return QueueProperties.PROFILING_ENABLE in self.properties

    def _duration_with_noise_ns(self, nominal_s: float) -> int:
        if self.rng is not None:
            nominal_s = float(
                noisy_samples(self.device.spec, nominal_s, 1, self.rng)[0]
            )
        return max(int(round(nominal_s * 1e9)), 1)

    @property
    def out_of_order(self) -> bool:
        return QueueProperties.OUT_OF_ORDER_EXEC_MODE_ENABLE in self.properties

    def _record(
        self,
        command_type: CommandType,
        duration_ns: int,
        wait_for: list[Event] | None,
        info: dict,
    ) -> Event:
        self._check_queue_alive()
        queued = self._host_time_ns
        self._host_time_ns += ENQUEUE_OVERHEAD_NS
        submit = queued + ENQUEUE_OVERHEAD_NS
        start = submit
        if not self.out_of_order:
            # in-order queues serialise behind the previous command
            start = max(start, self._last_end_ns)
        if wait_for:
            for dep in wait_for:
                dep.wait()
                start = max(start, dep.end_ns)
        end = start + duration_ns
        self._last_end_ns = end
        # the device clock reads as the completion time of the latest-
        # finishing command (out-of-order commands may overlap)
        self.device_time_ns = max(self.device_time_ns, end)
        event = Event(
            command_type=command_type,
            queued_ns=queued,
            submit_ns=submit,
            start_ns=start,
            end_ns=end,
            status=CommandExecutionStatus.COMPLETE,
            profiling_enabled=self.profiling_enabled,
            info=info,
        )
        self.events.append(event)

        registry = default_registry()
        registry.counter(
            "ocl_commands_enqueued_total",
            "Commands enqueued on simulated command queues",
        ).inc(command=command_type.value, device=self.device.name)
        moved = info.get("bytes")
        if moved:
            registry.counter(
                "ocl_bytes_moved_total",
                "Bytes moved by buffer read/write/copy/fill commands",
            ).inc(moved, command=command_type.value, device=self.device.name)

        # Completion hooks, cheapest-scope first.  Each publish returns
        # immediately when its bus has no subscribers.
        self.event_bus.publish(self, event)
        self.context.event_bus.publish(self, event)
        GLOBAL_EVENT_BUS.publish(self, event)
        return event

    def submit(
        self,
        command_type: CommandType,
        info: dict,
        wait_for: list[Event] | None = None,
    ) -> Event:
        """Price a command on this device and stamp it onto the clock.

        Every ``enqueue_*`` method ends here once its functional effect
        is done; the runner calls it directly to replay a recorded
        command log on another device.  One timing-noise sample is
        drawn per command (none for markers and barriers).  ``info`` is
        not mutated: the event gets a copy extended by the pricing.
        """
        nominal_s, priced = price_command(self.device.spec, command_type, info)
        if nominal_s is None:
            duration_ns = SYNC_COMMAND_NS
        else:
            duration_ns = self._duration_with_noise_ns(nominal_s)
        return self._record(command_type, duration_ns, wait_for, {**info, **priced})

    # ------------------------------------------------------------------
    def enqueue_nd_range_kernel(
        self,
        kernel: Kernel,
        global_size: tuple[int, ...] | int | NDRange,
        local_size: tuple[int, ...] | None = None,
        wait_for: list[Event] | None = None,
    ) -> Event:
        """Execute a kernel over an NDRange (``clEnqueueNDRangeKernel``)."""
        self._check_queue_alive()
        if kernel.context is not self.context:
            raise InvalidContext("kernel belongs to a different context")
        if isinstance(global_size, NDRange):
            nd = global_size
        else:
            if isinstance(global_size, int):
                global_size = (global_size,)
            nd = NDRange(tuple(global_size), local_size)

        san = self.context.sanitizer
        try:
            resolved = kernel.resolved_args()
        except InvalidMemObject as exc:
            if san is not None:
                san.on_use_after_release(kernel, exc)
            raise
        profile = kernel.resolve_profile(nd, resolved)

        # Functional execution: the kernel body mutates buffer storage.
        # Under an attached sanitizer buffer arrays are swapped for
        # shadow-memory guard views, and a guard-raised IndexError
        # aborts the kernel but not the analysis run.
        if san is None:
            kernel.source.body(nd, *resolved)
        else:
            exec_args = san.wrap_args(kernel, nd, kernel._args, resolved)
            try:
                kernel.source.body(nd, *exec_args)
            except IndexError as exc:
                san.on_kernel_abort(kernel, nd, exc)
            finally:
                san.after_kernel(kernel, nd)

        return self.submit(
            CommandType.ND_RANGE_KERNEL,
            {
                "kernel": kernel.name,
                "n_args": len(resolved),
                "work_items": nd.work_items,
                "work_groups": nd.work_groups,
                "profile": profile,
            },
            wait_for,
        )

    # ------------------------------------------------------------------
    def _check_buffer(self, buf: Buffer) -> None:
        if not isinstance(buf, Buffer):
            raise InvalidValue(f"expected a Buffer, got {type(buf)!r}")
        if buf.context is not self.context:
            raise InvalidContext("buffer belongs to a different context")

    def enqueue_write_buffer(
        self, buf: Buffer, src: np.ndarray, wait_for: list[Event] | None = None
    ) -> Event:
        """Copy host data into a device buffer (``clEnqueueWriteBuffer``)."""
        self._check_buffer(buf)
        # READ_ONLY restricts *kernel* writes; host writes are how
        # read-only inputs get their data, so only aliveness is checked.
        buf._check_alive()
        if src.nbytes != buf.size:
            raise InvalidValue(
                f"host array of {src.nbytes} bytes does not match buffer of {buf.size}"
            )
        dst = buf.array
        np.copyto(dst.view(np.uint8).reshape(-1), src.view(np.uint8).reshape(-1))
        if self.context.sanitizer is not None:
            self.context.sanitizer.on_host_write(buf)
        return self.submit(CommandType.WRITE_BUFFER, {"bytes": buf.size}, wait_for)

    def enqueue_read_buffer(
        self, buf: Buffer, dest: np.ndarray, wait_for: list[Event] | None = None
    ) -> Event:
        """Copy device data back to the host (``clEnqueueReadBuffer``)."""
        self._check_buffer(buf)
        buf._check_readable()
        if dest.nbytes != buf.size:
            raise InvalidValue(
                f"host array of {dest.nbytes} bytes does not match buffer of {buf.size}"
            )
        if self.context.sanitizer is not None:
            self.context.sanitizer.on_host_read(buf)
        np.copyto(dest.view(np.uint8).reshape(-1), buf.array.view(np.uint8).reshape(-1))
        return self.submit(CommandType.READ_BUFFER, {"bytes": buf.size}, wait_for)

    def enqueue_copy_buffer(
        self, src: Buffer, dst: Buffer, wait_for: list[Event] | None = None
    ) -> Event:
        """Device-to-device copy (``clEnqueueCopyBuffer``)."""
        self._check_buffer(src)
        self._check_buffer(dst)
        if src.size != dst.size:
            raise InvalidValue(f"buffer sizes differ: {src.size} vs {dst.size}")
        np.copyto(
            dst.array.view(np.uint8).reshape(-1), src.array.view(np.uint8).reshape(-1)
        )
        if self.context.sanitizer is not None:
            self.context.sanitizer.on_host_read(src)
            self.context.sanitizer.on_host_write(dst)
        return self.submit(CommandType.COPY_BUFFER, {"bytes": src.size}, wait_for)

    def enqueue_fill_buffer(
        self, buf: Buffer, value: int, wait_for: list[Event] | None = None
    ) -> Event:
        """Pattern-fill a buffer (``clEnqueueFillBuffer``, byte pattern)."""
        self._check_buffer(buf)
        buf.array.view(np.uint8)[...] = np.uint8(value)
        if self.context.sanitizer is not None:
            self.context.sanitizer.on_host_write(buf)
        return self.submit(
            CommandType.FILL_BUFFER, {"bytes": buf.size, "value": value}, wait_for
        )

    # ------------------------------------------------------------------
    def enqueue_marker(self, wait_for: list[Event] | None = None) -> Event:
        """A zero-duration marker event."""
        return self.submit(CommandType.MARKER, {}, wait_for)

    def enqueue_barrier(self) -> Event:
        """A barrier; trivially complete on an in-order queue."""
        return self.submit(CommandType.BARRIER, {})

    def flush(self) -> None:
        """No-op: commands are submitted eagerly."""

    def finish(self) -> None:
        """Block until all commands complete (they already have)."""
        for event in self.events:
            event.wait()

    # ------------------------------------------------------------------
    def kernel_events(self) -> list[Event]:
        """All kernel-execution events, in order."""
        return [e for e in self.events if e.command_type == CommandType.ND_RANGE_KERNEL]

    def total_kernel_time_s(self) -> float:
        """Sum of device time across all kernel events (paper §5.1)."""
        return sum(e.duration_s for e in self.kernel_events())

    def total_kernel_energy_j(self) -> float:
        """Sum of modeled energy across all kernel events."""
        return sum(e.info.get("energy_j", 0.0) for e in self.kernel_events())

    def reset_events(self) -> None:
        """Forget recorded events (between harness iterations)."""
        self.events.clear()
