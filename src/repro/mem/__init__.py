"""Pointer-based memory model: buffers, explicit deep copies, memset."""

from .alignment import OPTIMAL_ALIGNMENT_BYTES, pitch_bytes, pitch_elements
from .buf import Buffer, ViewPlainPtr, alloc, alloc_like, view_plain
from .copy import PCIE_BANDWIDTH_GBS, TaskCopy, TaskMemset, copy, memset
from .guard import UNGUARDED_ENV, GuardedArray, guard
from .view import ViewSubView, sub_view

__all__ = [
    "Buffer",
    "alloc",
    "alloc_like",
    "view_plain",
    "ViewPlainPtr",
    "copy",
    "memset",
    "TaskCopy",
    "TaskMemset",
    "ViewSubView",
    "GuardedArray",
    "guard",
    "UNGUARDED_ENV",
    "sub_view",
    "pitch_elements",
    "pitch_bytes",
    "OPTIMAL_ALIGNMENT_BYTES",
    "PCIE_BANDWIDTH_GBS",
]
