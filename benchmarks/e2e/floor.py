"""Raw-numpy twins: the floor in ``overhead_x`` and the oracle.

Every op and pass item has a twin here that does the same arithmetic
with plain numpy on its own copies of the inputs, no ``repro`` import.
The twins run interleaved with the measured ops; their median time is
the denominator of ``overhead_x`` and their arrays are what the
program's outputs are checked against.

Each expression repeats the kernel's operand order, so elementwise
results are bit-equal (``np.array_equal``).  GEMM is the exception: the
kernel multiplies 16-row chunks, the twin the whole matrix, and BLAS
may block the two differently — it is compared with ``GEMM_RTOL``.
"""

from __future__ import annotations

import time
from typing import Dict

import numpy as np

GEMM_RTOL = 1e-12

#: The launch workloads' pass items, in launch order.
ITEMS = ("tiny", "axpy_blocks", "axpy_spans", "gemm", "jacobi_graph")

TINY_N = 256
TINY_LAUNCHES = 8
AXPY_N = 2**18
GEMM_N = 256
JACOBI_HW = 64
JACOBI_SWEEPS = 6
JACOBI_C = 0.2
ALPHA = 2.0
GEMM_ALPHA = 1.5
GEMM_BETA = 0.5


def axpy(alpha: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Twin of one serve ``axpy`` request (inputs stay untouched)."""
    return alpha * x + y


def axpy_inplace(alpha: float, x: np.ndarray, y: np.ndarray) -> None:
    y[:] = alpha * x + y


def gemm_inplace(alpha, A, B, beta, C) -> None:
    C[:] = alpha * (A @ B) + beta * C


def jacobi_sweeps(c: float, grid: np.ndarray, scratch: np.ndarray, sweeps: int) -> np.ndarray:
    """``sweeps`` Jacobi steps ping-ponging ``grid``/``scratch``;
    returns whichever holds the result."""
    src, dst = grid, scratch
    for _ in range(sweeps):
        dst[...] = src
        center = src[1:-1, 1:-1]
        dst[1:-1, 1:-1] = center + c * (
            src[:-2, 1:-1] + src[2:, 1:-1] + src[1:-1, :-2] + src[1:-1, 2:] - 4.0 * center
        )
        src, dst = dst, src
    return src


def launch_inputs(seed: int) -> Dict[str, np.ndarray]:
    """Host arrays of one launch pass, from the workload seed."""
    rng = np.random.default_rng(seed)
    return {
        "tiny_x": rng.random(TINY_N),
        "tiny_y": rng.random(TINY_N),
        "blocks_x": rng.random(AXPY_N),
        "blocks_y": rng.random(AXPY_N),
        "spans_x": rng.random(AXPY_N),
        "spans_y": rng.random(AXPY_N),
        "gemm_a": rng.random((GEMM_N, GEMM_N)),
        "gemm_b": rng.random((GEMM_N, GEMM_N)),
        "gemm_c": rng.random((GEMM_N, GEMM_N)),
        "jacobi": rng.random((JACOBI_HW, JACOBI_HW)),
    }


#: Computed from array sizes, not measured.  Every array is far below
#: 4x the last-level cache, so these support no bandwidth or roofline
#: claim — they only say how much arithmetic an item is.
ITEM_FLOPS = {
    "tiny": TINY_LAUNCHES * 2 * TINY_N,
    "axpy_blocks": 2 * AXPY_N,
    "axpy_spans": 2 * AXPY_N,
    "gemm": 2 * GEMM_N**3 + 3 * GEMM_N**2,
    "jacobi_graph": JACOBI_SWEEPS * 6 * JACOBI_HW**2,
}
ITEM_BYTES = {
    "tiny": TINY_LAUNCHES * 24 * TINY_N,
    "axpy_blocks": 24 * AXPY_N,
    "axpy_spans": 24 * AXPY_N,
    "gemm": 8 * 4 * GEMM_N**2,
    "jacobi_graph": JACOBI_SWEEPS * 8 * 6 * JACOBI_HW**2,
}


class FloorPass:
    """The launch pass in plain numpy, on its own copies."""

    def __init__(self, inputs: Dict[str, np.ndarray]):
        self.a = {k: v.copy() for k, v in inputs.items()}
        self.jacobi_scratch = np.empty_like(self.a["jacobi"])

    def run(self) -> Dict[str, float]:
        """One pass; seconds per item."""
        a = self.a
        t = [time.perf_counter()]
        for _ in range(TINY_LAUNCHES):
            axpy_inplace(ALPHA, a["tiny_x"], a["tiny_y"])
        t.append(time.perf_counter())
        axpy_inplace(ALPHA, a["blocks_x"], a["blocks_y"])
        t.append(time.perf_counter())
        axpy_inplace(ALPHA, a["spans_x"], a["spans_y"])
        t.append(time.perf_counter())
        gemm_inplace(GEMM_ALPHA, a["gemm_a"], a["gemm_b"], GEMM_BETA, a["gemm_c"])
        t.append(time.perf_counter())
        out = jacobi_sweeps(JACOBI_C, a["jacobi"], self.jacobi_scratch, JACOBI_SWEEPS)
        t.append(time.perf_counter())
        # An even sweep count lands back in the input array, like the
        # kernel pass's ping-pong does.
        assert out is a["jacobi"]
        return {name: t[i + 1] - t[i] for i, name in enumerate(ITEMS)}

    def outputs(self) -> Dict[str, np.ndarray]:
        a = self.a
        return {
            "tiny": a["tiny_y"],
            "axpy_blocks": a["blocks_y"],
            "axpy_spans": a["spans_y"],
            "gemm": a["gemm_c"],
            "jacobi_graph": a["jacobi"],
        }


def outputs_match(got: Dict[str, np.ndarray], want: Dict[str, np.ndarray]) -> bool:
    for name in ITEMS:
        if name == "gemm":
            if not np.allclose(got[name], want[name], rtol=GEMM_RTOL, atol=0.0):
                return False
        elif not np.array_equal(got[name], want[name]):
            return False
    return True
