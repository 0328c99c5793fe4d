"""Kernel-side negative-index guard (GuardedArray)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import QueueBlocking, accelerator, get_dev_by_idx, mem
from repro.core.errors import ExtentError
from repro.mem import UNGUARDED_ENV, GuardedArray, guard


@pytest.fixture
def karr():
    acc = accelerator("AccCpuSerial")
    dev = get_dev_by_idx(acc, 0)
    buf = mem.alloc(dev, 8)
    q = QueueBlocking(dev)
    mem.copy(q, buf, np.arange(8.0))
    yield buf.kernel_array(dev)
    buf.free()


class TestGuardedArray:
    def test_kernel_array_is_guarded(self, karr):
        assert isinstance(karr, GuardedArray)

    def test_negative_int_read_rejected(self, karr):
        with pytest.raises(ExtentError, match="-1"):
            _ = karr[-1]

    def test_negative_int_write_rejected(self, karr):
        with pytest.raises(ExtentError, match="-2"):
            karr[-2] = 0.0

    def test_negative_numpy_scalar_rejected(self, karr):
        with pytest.raises(ExtentError):
            _ = karr[np.int64(-1)]

    def test_negative_in_index_array_rejected(self, karr):
        with pytest.raises(ExtentError):
            _ = karr[np.array([0, -3, 1])]

    def test_negative_in_list_rejected(self, karr):
        with pytest.raises(ExtentError):
            _ = karr[[1, -1]]

    def test_negative_in_tuple_key_rejected(self):
        g = guard(np.zeros((4, 4)))
        with pytest.raises(ExtentError):
            _ = g[0, -1]

    def test_positive_access_passes(self, karr):
        assert karr[3] == 3.0
        karr[3] = 30.0
        assert karr[3] == 30.0

    def test_negative_slices_stay_legal(self, karr):
        # Slice semantics are explicit about direction; the scan kernel
        # uses chunk[:-1].
        np.testing.assert_array_equal(karr[:-1], np.arange(7.0))
        np.testing.assert_array_equal(karr[-3:], [5.0, 6.0, 7.0])

    def test_boolean_mask_passes(self, karr):
        mask = np.zeros(8, dtype=bool)
        mask[2] = True
        np.testing.assert_array_equal(karr[mask], [2.0])

    def test_views_inherit_the_guard(self, karr):
        half = karr[2:6]
        assert isinstance(half, GuardedArray)
        with pytest.raises(ExtentError):
            _ = half[-1]

    def test_oob_still_raises_index_error(self, karr):
        with pytest.raises(IndexError):
            _ = karr[99]

    def test_escape_hatch_env(self, monkeypatch):
        monkeypatch.setenv(UNGUARDED_ENV, "1")
        arr = guard(np.arange(4.0))
        assert not isinstance(arr, GuardedArray)
        assert arr[-1] == 3.0

    def test_view_subview_kernel_array_guarded(self):
        from repro.mem import ViewSubView

        acc = accelerator("AccCpuSerial")
        dev = get_dev_by_idx(acc, 0)
        buf = mem.alloc(dev, 8)
        q = QueueBlocking(dev)
        mem.copy(q, buf, np.arange(8.0))
        sub = ViewSubView(buf, extent=4, offset=2)
        ka = sub.kernel_array(dev)
        assert isinstance(ka, GuardedArray)
        with pytest.raises(ExtentError):
            _ = ka[-1]
        buf.free()


#: Every kind of negative integer index the guard rejects ...
NEGATIVE_COMPONENTS = {
    "int": -1,
    "np.int64": np.int64(-2),
    "int-array": np.array([0, -3, 1]),
    "list": [1, -1],
}
#: ... and where in a key it can sit: alone, or at either end of a tuple
#: whose other components are slices.
PLACEMENTS = {
    "bare": lambda k: k,
    "tuple-first": lambda k: (k, slice(None)),
    "tuple-last": lambda k: (slice(1, 3), k),
    "tuple-neg-slice": lambda k: (slice(None, -1), k),
}


class TestRejectionMatrix:
    """The guard tests the common key types first; every rejection that
    existed before that reordering must still fire, read and write."""

    @pytest.mark.parametrize("place", PLACEMENTS, ids=str)
    @pytest.mark.parametrize("kind", NEGATIVE_COMPONENTS, ids=str)
    def test_negative_component_rejected(self, kind, place):
        g = guard(np.arange(16.0).reshape(4, 4))
        key = PLACEMENTS[place](NEGATIVE_COMPONENTS[kind])
        with pytest.raises(ExtentError, match="negative index"):
            _ = g[key]
        with pytest.raises(ExtentError, match="negative index"):
            g[key] = 0.0

    @pytest.mark.parametrize("place", PLACEMENTS, ids=str)
    def test_non_negative_twin_passes(self, place):
        g = guard(np.arange(16.0).reshape(4, 4))
        raw = np.arange(16.0).reshape(4, 4)
        for k in (1, np.int64(2), np.array([0, 3, 1]), [1, 1]):
            key = PLACEMENTS[place](k)
            np.testing.assert_array_equal(g[key], raw[key])

    @pytest.mark.parametrize(
        "key",
        [
            slice(-3, -1),
            slice(None, None, -1),
            (slice(-2, None), slice(None, -1)),
            (slice(None, -1), 0),
            (Ellipsis, slice(-1, None)),
            (None, slice(-2, None)),
        ],
        ids=repr,
    )
    def test_negative_slice_bounds_stay_legal(self, key):
        g = guard(np.arange(16.0).reshape(4, 4))
        raw = np.arange(16.0).reshape(4, 4)
        np.testing.assert_array_equal(g[key], raw[key])
        g[key] = -1.0
        raw[key] = -1.0
        np.testing.assert_array_equal(np.asarray(g), raw)

    def test_boolean_components_pass(self):
        g = guard(np.arange(4.0))
        assert g[np.array([True, False, False, True])].tolist() == [0.0, 3.0]
        assert g[True].shape == (1, 4) and g[np.bool_(True)].shape == (1, 4)

    def test_message_names_index_and_key(self):
        g = guard(np.zeros((4, 4)))
        with pytest.raises(ExtentError) as err:
            _ = g[slice(0, 2), -3]
        assert "-3" in str(err.value) and "slice(0, 2" in str(err.value)
