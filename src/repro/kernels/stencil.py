"""2-d Jacobi stencil kernel.

The second domain-specific example workload (heat diffusion), showing
the n-dimensional side of the model: 2-d work divisions, 2-d element
boxes, and double buffering through explicit queue-ordered launches.
"""

from __future__ import annotations

import numpy as np

from ..core.element import clip_box, element_box
from ..core.kernel import fn_acc
from ..hardware.cache import AccessPattern
from ..perfmodel.kernel_model import KernelCharacteristics

__all__ = ["Jacobi2DKernel", "jacobi_reference_step"]


class Jacobi2DKernel:
    """One Jacobi sweep: ``dst = src + c * laplacian(src)`` on the
    interior of an (h, w) grid; boundary rows/columns are copied.

    Each thread owns a 2-d element box, copies it through and updates
    its interior with vector operations over shifted views — the element
    level in two dimensions.
    """

    @fn_acc
    def __call__(self, acc, h, w, c, src, dst):
        extent = (h, w)
        box = element_box(acc, extent)
        rows, cols = box
        if rows.start >= rows.stop or cols.start >= cols.stop:
            return
        # Pass the owned box through, then overwrite its interior.
        dst[rows, cols] = src[rows, cols]
        ir, ic = clip_box(box, extent)
        if ir.start < ir.stop and ic.start < ic.stop:
            up = src[ir.start - 1 : ir.stop - 1, ic]
            down = src[ir.start + 1 : ir.stop + 1, ic]
            left = src[ir, ic.start - 1 : ic.stop - 1]
            right = src[ir, ic.start + 1 : ic.stop + 1]
            center = src[ir, ic]
            dst[ir, ic] = center + c * (up + down + left + right - 4.0 * center)

    def characteristics(self, work_div, h, w, c, src, dst) -> KernelCharacteristics:
        cells = float(h * w)
        return KernelCharacteristics(
            flops=6.0 * cells,
            global_read_bytes=8.0 * 5.0 * cells,
            global_write_bytes=8.0 * cells,
            working_set_bytes=int(
                3 * work_div.thread_elem_extent[1] * 8
                * max(work_div.thread_elem_extent[0], 1)
            ),
            thread_access_pattern=AccessPattern.CONTIGUOUS,
            vector_friendly=work_div.thread_elem_count >= 4,
        )


def jacobi_reference_step(grid: np.ndarray, c: float) -> np.ndarray:
    """Host reference for one sweep (same boundary treatment)."""
    out = grid.copy()
    out[1:-1, 1:-1] = grid[1:-1, 1:-1] + c * (
        grid[:-2, 1:-1]
        + grid[2:, 1:-1]
        + grid[1:-1, :-2]
        + grid[1:-1, 2:]
        - 4.0 * grid[1:-1, 1:-1]
    )
    return out
