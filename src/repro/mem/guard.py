"""Negative-index guarding for kernel-side array access.

numpy silently wraps negative indices (``a[-1]`` is the last element),
which turns a whole class of real kernel bugs — off-by-one stencils
reading ``src[i - 1]`` at ``i == 0`` — into silently wrong answers
instead of errors.  CUDA would read out of bounds; a correctness
reproduction should complain.

:func:`guard` wraps the array a :meth:`Buffer.kernel_array` /
:meth:`ViewSubView.kernel_array` hands to the engine in a
:class:`GuardedArray` view that rejects negative *integer* indices
(scalar or fancy) with :class:`~repro.core.errors.ExtentError` naming
the offending index.  Negative *slice* bounds stay legal — ``a[:-1]``
is idiomatic, unambiguous, and used by shipped kernels.

Host-side access (``as_numpy``) is untouched: wrap-around is a
well-defined numpy idiom there.  Set ``REPRO_UNGUARDED_KERNEL_ARRAYS=1``
to disable the guard (e.g. for micro-benchmarks of index-heavy
kernels).
"""

from __future__ import annotations

import numpy as np

from .. import knobs
from ..core.errors import ExtentError

__all__ = ["GuardedArray", "guard", "check_index_key", "UNGUARDED_ENV"]

#: Set to a true value to hand kernels raw (unguarded) arrays.
UNGUARDED_ENV = knobs.UNGUARDED_KERNEL_ARRAYS


def _reject(index, key) -> None:
    raise ExtentError(
        f"negative index {index!r} in kernel-side array access "
        f"(key {key!r}): numpy would silently wrap to the other end of "
        "the array, hiding an out-of-bounds bug; index from the front "
        "instead (host-side as_numpy() views remain unguarded)"
    )


def _check_uncommon(k, key) -> None:
    """Everything a key component can be besides an exact ``int`` or
    ``slice`` (which :func:`check_index_key` handles inline)."""
    if isinstance(k, (bool, np.bool_)):
        return  # boolean scalar mask component
    elif isinstance(k, (int, np.integer)):
        if int(k) < 0:
            _reject(int(k), key)
    elif isinstance(k, np.ndarray):
        if k.dtype.kind in "iu" and k.size and int(k.min()) < 0:
            _reject(int(k.min()), key)
    elif isinstance(k, (list, tuple)):
        arr = np.asarray(k)
        if arr.dtype.kind in "iu" and arr.size and int(arr.min()) < 0:
            _reject(int(arr.min()), key)
    # None, Ellipsis pass


def check_index_key(key) -> None:
    """Raise :class:`ExtentError` if ``key`` contains a negative integer
    index component (scalar, array, or sequence); slices are exempt.

    Shipped kernels index with slices, tuples of slices and plain ints
    almost exclusively, so those two exact types are tested first.
    """
    if type(key) is slice:
        return  # the commonest key; negative slice bounds are idiomatic
    for k in key if type(key) is tuple else (key,):
        t = type(k)
        if t is int:
            if k < 0:
                _reject(k, key)
        elif t is not slice:
            _check_uncommon(k, key)


_ndarray_getitem = np.ndarray.__getitem__
_ndarray_setitem = np.ndarray.__setitem__


class GuardedArray(np.ndarray):
    """An ndarray view whose element access rejects negative integer
    indices with :class:`ExtentError` (see module docstring).

    Views derived by basic indexing stay guarded (subclass propagation),
    so sub-views and row slices a kernel takes keep the check.
    """

    __slots__ = ()

    def __getitem__(self, key):
        check_index_key(key)
        return _ndarray_getitem(self, key)

    def __setitem__(self, key, value) -> None:
        check_index_key(key)
        _ndarray_setitem(self, key, value)


def guard(arr: np.ndarray) -> np.ndarray:
    """``arr`` as a :class:`GuardedArray` view (same memory), unless
    ``REPRO_UNGUARDED_KERNEL_ARRAYS`` disables guarding."""
    if knobs.get(UNGUARDED_ENV):
        return arr
    return arr.view(GuardedArray)
