"""Device memory objects (buffers).

A :class:`Buffer` owns a numpy array standing in for a device
allocation.  Allocations are charged against the context's device
global memory before any host storage is allocated, so
oversubscription fails with ``CL_OUT_OF_RESOURCES`` (or
``CL_MEM_OBJECT_ALLOCATION_FAILURE`` for one oversized request),
and the paper's footprint-verification step ("the memory footprint was
verified … by printing the sum of the size of all memory allocated on
the device", §4.4) maps onto :meth:`Context.allocated_bytes`.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidMemObject, InvalidValue
from .types import MemFlags


class Buffer:
    """A device buffer backed by a numpy array.

    Parameters
    ----------
    context:
        Owning :class:`~repro.ocl.context.Context`.
    flags:
        :class:`MemFlags` combination.  ``COPY_HOST_PTR`` snapshots
        ``hostbuf`` at creation; ``USE_HOST_PTR`` aliases it (writes by
        kernels become visible in the host array, as on CPU devices).
    size:
        Allocation size in bytes (required unless ``hostbuf`` given).
    hostbuf:
        Host array providing initial contents and dtype/shape.
    """

    def __init__(
        self,
        context,
        flags: MemFlags = MemFlags.READ_WRITE,
        size: int | None = None,
        hostbuf: np.ndarray | None = None,
    ):
        if hostbuf is None and size is None:
            raise InvalidValue("Buffer needs either a size or a hostbuf")
        if hostbuf is not None and not isinstance(hostbuf, np.ndarray):
            raise InvalidValue(f"hostbuf must be a numpy array, got {type(hostbuf)!r}")
        if MemFlags.COPY_HOST_PTR in flags and hostbuf is None:
            raise InvalidValue("COPY_HOST_PTR requires a hostbuf")
        if (MemFlags.READ_ONLY in flags) and (MemFlags.WRITE_ONLY in flags):
            raise InvalidValue("READ_ONLY and WRITE_ONLY are mutually exclusive")

        if hostbuf is not None:
            if size is not None and size != hostbuf.nbytes:
                raise InvalidValue(
                    f"size {size} disagrees with hostbuf of {hostbuf.nbytes} bytes"
                )
            size = hostbuf.nbytes

        self.context = context
        self.flags = flags
        self.size = int(size)
        self._released = False
        #: Whether creation provided initial contents.  Size-only
        #: allocations start uninitialised (the zeros below model
        #: storage, not data); the sanitizer's uninit-read check keys
        #: off this.
        self._host_initialized = hostbuf is not None

        # the device limit is checked before any host storage exists
        context.charge_allocation(self.size)
        try:
            if hostbuf is not None and MemFlags.USE_HOST_PTR in flags:
                self._array = hostbuf
            elif hostbuf is not None:
                self._array = hostbuf.copy()
            else:
                self._array = np.zeros(self.size, dtype=np.uint8)
        except BaseException:
            context.refund_allocation(self.size)
            raise
        context._register_allocation(self)

    # ------------------------------------------------------------------
    @property
    def array(self) -> np.ndarray:
        """The backing storage (device-side view)."""
        self._check_alive()
        return self._array

    @property
    def nbytes(self) -> int:
        return self.size

    def view(self, dtype, shape=None) -> np.ndarray:
        """Typed view of the buffer contents."""
        self._check_alive()
        flat = self._array.view(dtype)
        return flat if shape is None else flat.reshape(shape)

    # ------------------------------------------------------------------
    def create_sub_buffer(self, origin: int, size: int,
                          flags: MemFlags | None = None) -> "SubBuffer":
        """A view of a byte region (``clCreateSubBuffer``).

        The sub-buffer shares storage with its parent: kernel writes
        through either are visible in both.  ``origin`` must respect
        the device's base-address alignment, as in OpenCL.
        """
        from .types import MEM_BASE_ADDR_ALIGN_BITS

        self._check_alive()
        align = MEM_BASE_ADDR_ALIGN_BITS // 8
        if origin % align:
            raise InvalidValue(
                f"sub-buffer origin {origin} violates the {align}-byte "
                "base-address alignment"
            )
        if origin < 0 or size <= 0 or origin + size > self.size:
            raise InvalidValue(
                f"sub-buffer region [{origin}, {origin + size}) outside "
                f"parent of {self.size} bytes"
            )
        return SubBuffer(self, origin, size,
                         self.flags if flags is None else flags)

    def release(self) -> None:
        """Free the allocation (``clReleaseMemObject``).  Idempotent."""
        if not self._released:
            self._released = True
            self.context._unregister_allocation(self)
            self._array = None

    @property
    def released(self) -> bool:
        return self._released

    def _check_alive(self) -> None:
        if self._released:
            raise InvalidMemObject("buffer has been released")

    def _check_writable(self) -> None:
        self._check_alive()
        if MemFlags.READ_ONLY in self.flags:
            raise InvalidMemObject("buffer is READ_ONLY on the device")

    def _check_readable(self) -> None:
        self._check_alive()

    def __enter__(self) -> "Buffer":
        return self

    def __exit__(self, *exc) -> None:
        self.release()

    def __repr__(self) -> str:
        state = "released" if self._released else f"{self.size} bytes"
        return f"<Buffer {state} on {self.context.device.name}>"


class SubBuffer(Buffer):
    """A region view over a parent buffer (``clCreateSubBuffer``).

    Shares the parent's storage: no separate allocation is charged to
    the context, and releasing the sub-buffer leaves the parent alive.
    Releasing the *parent* invalidates the sub-buffer, as in OpenCL.
    """

    def __init__(self, parent: Buffer, origin: int, size: int, flags: MemFlags):
        # deliberately NOT calling Buffer.__init__: no new allocation
        self.context = parent.context
        self.parent = parent
        self.origin = int(origin)
        self.flags = flags
        self.size = int(size)
        self._released = False
        self._host_initialized = parent._host_initialized

    @property
    def array(self) -> np.ndarray:
        self._check_alive()
        flat = self.parent.array.reshape(-1).view(np.uint8)
        return flat[self.origin : self.origin + self.size]

    def _check_alive(self) -> None:
        if self._released:
            raise InvalidMemObject("sub-buffer has been released")
        if self.parent.released:
            raise InvalidMemObject("parent buffer has been released")

    def release(self) -> None:
        """Release the view; the parent allocation is untouched."""
        self._released = True

    def __repr__(self) -> str:
        state = "released" if self._released else (
            f"[{self.origin}, {self.origin + self.size})")
        return f"<SubBuffer {state} of {self.parent!r}>"
