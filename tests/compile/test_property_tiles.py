"""Differential property: the compiled stencils equal interpretation,
bit for bit, on random geometry — on every pooled back-end."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Vec, WorkDivMembers
from repro.kernels import Jacobi2DKernel, Jacobi3DKernel

from .test_tiles import POOLED, both, fresh_state  # noqa: F401 - fixture


@st.composite
def geometry(draw):
    """(backend, dim, extent, work division, sweep count): extents from 1
    (no interior at all) up, boxes that do not divide them, grids that
    overhang (threads with empty boxes) or fall short, one thread per
    block and several."""
    backend = draw(st.sampled_from(sorted(POOLED)))
    dim = draw(st.sampled_from([2, 3]))
    extent = tuple(draw(st.integers(1, 11 if dim == 2 else 6)) for _ in range(dim))
    elems = tuple(draw(st.integers(1, 5)) for _ in range(dim))
    threads = [1] * dim
    if POOLED[backend] > 1 and draw(st.booleans()):
        threads[draw(st.integers(0, dim - 1))] = 2
        if draw(st.booleans()):
            threads[draw(st.integers(0, dim - 1))] = 2
    blocks = tuple(
        max(1, -(-e // (t * s)) + draw(st.sampled_from([-1, 0, 0, 1])))
        for e, t, s in zip(extent, threads, elems)
    )
    wd = WorkDivMembers.make(Vec(*blocks), Vec(*threads), Vec(*elems))
    return backend, dim, extent, wd, draw(st.integers(1, 3))


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(geo=geometry(), seed=st.integers(0, 2**32 - 1))
def test_stencil_sweeps_bit_identical(geo, seed):
    backend, dim, extent, wd, count = geo
    grid = np.random.default_rng(seed).random(extent)
    kernel = Jacobi2DKernel() if dim == 2 else Jacobi3DKernel()
    compiled, interpreted, stats = both(
        backend, kernel, wd, extent + (0.15,), grid, count=count
    )
    assert compiled == interpreted
    assert stats["compiled_launches"] == count
    assert stats["fallbacks"] == {}
