"""Simulated disk substrate.

Provides the storage layer the buffer manager sits on: a page store with
allocate/read/write, a parametric disk service-time model (seek + rotation
+ transfer), a FIFO queueing model that reproduces the "long I/O queues
build up" phenomenon of the paper's Example 1.2, and trace-file I/O for
persisting and replaying reference strings.
"""

from .page import PAGE_SIZE, DiskPage
from .latency import DiskServiceModel, DiskQueue
from .disk import SimulatedDisk, IoStats
from .trace_io import write_trace, read_trace, trace_to_pages

__all__ = [
    "PAGE_SIZE",
    "DiskPage",
    "DiskServiceModel",
    "DiskQueue",
    "SimulatedDisk",
    "IoStats",
    "write_trace",
    "read_trace",
    "trace_to_pages",
]
