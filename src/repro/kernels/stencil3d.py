"""3-d Jacobi stencil — the "unrestricted dimensionality" claim.

Paper Sec. 3.1: *"Each level of the Alpaka parallelization hierarchy is
unrestricted in its dimensionality."*  The 2-d stencil exercises n=2;
this kernel exercises n=3 end to end: 3-d work divisions, 3-d element
boxes, 3-d buffers and copies.
"""

from __future__ import annotations

import numpy as np

from ..core.element import clip_box, element_box
from ..core.kernel import fn_acc
from ..hardware.cache import AccessPattern
from ..perfmodel.kernel_model import KernelCharacteristics

__all__ = ["Jacobi3DKernel", "jacobi3d_reference_step"]


class Jacobi3DKernel:
    """One 3-d Jacobi sweep: 7-point Laplacian on the interior, faces
    copied through."""

    @fn_acc
    def __call__(self, acc, d, h, w, c, src, dst):
        extent = (d, h, w)
        box = element_box(acc, extent)
        zs, ys, xs = box
        if zs.start >= zs.stop or ys.start >= ys.stop or xs.start >= xs.stop:
            return
        # Pass the owned box through, then overwrite its interior.
        dst[zs, ys, xs] = src[zs, ys, xs]
        iz, iy, ix = clip_box(box, extent)
        if iz.start < iz.stop and iy.start < iy.stop and ix.start < ix.stop:
            centre = src[iz, iy, ix]
            lap = (
                src[iz.start - 1 : iz.stop - 1, iy, ix]
                + src[iz.start + 1 : iz.stop + 1, iy, ix]
                + src[iz, iy.start - 1 : iy.stop - 1, ix]
                + src[iz, iy.start + 1 : iy.stop + 1, ix]
                + src[iz, iy, ix.start - 1 : ix.stop - 1]
                + src[iz, iy, ix.start + 1 : ix.stop + 1]
                - 6.0 * centre
            )
            dst[iz, iy, ix] = centre + c * lap

    def characteristics(self, work_div, d, h, w, c, src, dst):
        cells = float(d * h * w)
        return KernelCharacteristics(
            flops=8.0 * cells,
            global_read_bytes=8.0 * 7.0 * cells,
            global_write_bytes=8.0 * cells,
            working_set_bytes=int(
                3 * work_div.thread_elem_extent[1]
                * work_div.thread_elem_extent[2] * 8
            ),
            thread_access_pattern=AccessPattern.CONTIGUOUS,
            vector_friendly=work_div.thread_elem_count >= 4,
        )


def jacobi3d_reference_step(grid: np.ndarray, c: float) -> np.ndarray:
    out = grid.copy()
    out[1:-1, 1:-1, 1:-1] = grid[1:-1, 1:-1, 1:-1] + c * (
        grid[:-2, 1:-1, 1:-1]
        + grid[2:, 1:-1, 1:-1]
        + grid[1:-1, :-2, 1:-1]
        + grid[1:-1, 2:, 1:-1]
        + grid[1:-1, 1:-1, :-2]
        + grid[1:-1, 1:-1, 2:]
        - 6.0 * grid[1:-1, 1:-1, 1:-1]
    )
    return out
