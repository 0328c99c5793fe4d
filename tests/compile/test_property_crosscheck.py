"""Property suite: compiled == interpreted, bit for bit, or a clean fallback.

For every exported kernel family the vectorizer classifies as
compilable, hypothesis drives random extents and work divisions and
asserts the compiled replay's output bytes equal the interpreted
scheduler's (for the OpenMP-style DGEMM: the extent, the row-chunk
length, the block count and ``alpha``/``beta``, so tails and
multi-span threads occur).  Families that cannot compile must fall back
with their documented reason — and still produce interpreted-identical
results.
"""

import logging

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro import WorkDivMembers
from repro.compile import compile_stats, reset_compile_stats
from repro.kernels import (
    AxpyElementsKernel,
    AxpyKernel,
    DotKernel,
    FillKernel,
    GemmOmpStyleKernel,
    HistogramKernel,
    IotaKernel,
    MapKernel,
    ScaleKernel,
    SumReduceKernel,
)

from .launches import assert_bit_identical, run_with_scheduler


SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# -- compilable families ------------------------------------------------


arrays_f64 = st.integers(min_value=1, max_value=400)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


@SETTINGS
@given(n=arrays_f64, blocks=st.integers(1, 512), seed=seeds,
       alpha=st.floats(allow_nan=False, allow_infinity=False, width=64))
def test_axpy_scalar_bit_identical(n, blocks, seed, alpha):
    rng = np.random.default_rng(seed)
    x, y = rng.random(n), rng.random(n)
    stats = assert_bit_identical(
        AxpyKernel(), WorkDivMembers.make(blocks, 1, 1),
        (min(n, blocks), alpha), [x, y],
    )
    assert stats["fallbacks"] == {}
    assert stats["compiled_launches"] == 1


@SETTINGS
@given(n=arrays_f64, blocks=st.integers(1, 64), elems=st.integers(1, 8),
       seed=seeds)
def test_axpy_elements_bit_identical(n, blocks, elems, seed):
    rng = np.random.default_rng(seed)
    x, y = rng.random(n), rng.random(n)
    stats = assert_bit_identical(
        AxpyElementsKernel(), WorkDivMembers.make(blocks, 1, elems),
        (n, 2.5), [x, y],
    )
    assert stats["fallbacks"] == {}


@SETTINGS
@given(n=arrays_f64, blocks=st.integers(1, 64), elems=st.integers(1, 8),
       value=st.floats(allow_nan=False, allow_infinity=False, width=64))
def test_fill_bit_identical(n, blocks, elems, value):
    out = np.zeros(n)
    stats = assert_bit_identical(
        FillKernel(), WorkDivMembers.make(blocks, 1, elems),
        (n, value), [out],
    )
    assert stats["fallbacks"] == {}


@SETTINGS
@given(n=arrays_f64, blocks=st.integers(1, 64), elems=st.integers(1, 8),
       seed=seeds)
def test_scale_bit_identical(n, blocks, elems, seed):
    rng = np.random.default_rng(seed)
    x = rng.random(n)
    stats = assert_bit_identical(
        ScaleKernel(), WorkDivMembers.make(blocks, 1, elems),
        (n, 3.25), [x, np.zeros(n)],
    )
    assert stats["fallbacks"] == {}


@SETTINGS
@given(n=arrays_f64, blocks=st.integers(1, 64), elems=st.integers(1, 8),
       seed=seeds)
def test_map_ufunc_bit_identical(n, blocks, elems, seed):
    rng = np.random.default_rng(seed)
    x = rng.random(n)  # non-negative: sqrt stays real
    stats = assert_bit_identical(
        MapKernel(np.sqrt), WorkDivMembers.make(blocks, 1, elems),
        (n,), [x, np.zeros(n)],
    )
    assert stats["fallbacks"] == {}


@SETTINGS
@given(n=st.integers(1, 48), rows=st.integers(1, 16), blocks=st.integers(1, 8),
       seed=seeds, alpha=st.sampled_from([0.0, 1.5, -0.3]),
       beta=st.sampled_from([0.0, 0.25, 2.0]))
@example(n=64, rows=16, blocks=4, seed=0, alpha=1.5, beta=0.25)  # n % L == 0
@example(n=61, rows=16, blocks=4, seed=1, alpha=1.5, beta=0.25)  # tail chunk
@example(n=64, rows=4, blocks=3, seed=2, alpha=-0.3, beta=2.0)   # non-covering
@example(n=53, rows=4, blocks=3, seed=3, alpha=0.0, beta=0.0)    # both, 0s
@example(n=5, rows=8, blocks=1, seed=4, alpha=1.5, beta=0.0)     # one short chunk
@example(n=17, rows=9, blocks=1, seed=0, alpha=1.5, beta=0.0)    # 2 of 289 bits differ
def test_gemm_omp_style_bit_identical(n, rows, blocks, seed, alpha, beta):
    """Row chunks of any length, a tail or none, one span per thread or
    several: the chunked matmul keeps every interpreted BLAS call."""
    rng = np.random.default_rng(seed)
    A, B, C = rng.random((n, n)), rng.random((n, n)), rng.random((n, n))
    stats = assert_bit_identical(
        GemmOmpStyleKernel(), WorkDivMembers.make(blocks, 1, rows),
        (n, alpha, beta), [A, B, C],
        layout=lambda s, b: (s[0], s[1], b[0], b[1], s[2], b[2]),
    )
    assert stats["fallbacks"] == {}
    assert stats["compiled_launches"] == 1


# -- non-compilable families -------------------------------------------


NON_COMPILABLE = [
    (
        "histogram-atomics",
        lambda rng, n: (
            HistogramKernel(),
            (n, 0.0, 1.0, 8, rng.random(n)),
            [np.zeros(8)],
        ),
        "shared-memory",
    ),
    (
        "reduce-shared",
        lambda rng, n: (SumReduceKernel(), (n,), [rng.random(n), np.zeros(1)]),
        "unsupported-op",
    ),
    (
        "dot-divergent",
        lambda rng, n: (
            DotKernel(), (n,), [rng.random(n), rng.random(n), np.zeros(1)]
        ),
        "divergent-control-flow",
    ),
    (
        "iota-span-attrs",
        lambda rng, n: (IotaKernel(), (n, 5.0), [np.zeros(n)]),
        "span-shape",
    ),
]


@SETTINGS
@given(n=st.integers(min_value=8, max_value=200), seed=seeds,
       family=st.sampled_from(NON_COMPILABLE))
def test_non_compilable_falls_back_with_reason(n, seed, family):
    name, build, expected_reason = family
    rng = np.random.default_rng(seed)
    kernel, scalars, state_arrays = build(rng, n)
    scalars = tuple(scalars)
    arrays = list(state_arrays)
    if name == "histogram-atomics":
        # x is read-only input; stage it as an array arg too.
        arrays = [scalars[-1]] + arrays
        scalars = scalars[:-1]
    reset_compile_stats()
    wd = WorkDivMembers.make(8, 1, 4)
    compiled = run_with_scheduler("compiled", kernel, wd, scalars, arrays)
    interpreted = run_with_scheduler("pooled", kernel, wd, scalars, arrays)
    # Both legs interpret (the compiled leg fell back), so this is a
    # pooled-vs-pooled comparison: atomic reductions may accumulate in
    # a different block order run to run, which legitimately moves the
    # last ulp.  Bit-identity is the compiled-vs-interpreted contract
    # (see the crosscheck tests), not an interpretation-order promise.
    for got, want in zip(compiled, interpreted):
        np.testing.assert_allclose(
            np.frombuffer(got), np.frombuffer(want), rtol=1e-12, atol=0.0,
            err_msg=name,
        )
    stats = compile_stats()
    assert stats["compiled_launches"] == 0, name
    assert expected_reason in stats["fallbacks"], (
        name, stats["fallbacks"])


def test_fallback_reason_is_logged_once(caplog):
    """The transparent fallback explains itself in the log exactly once
    per (kernel, reason), however many launches repeat it.

    The once-filter lives on the process-cached scheduler, so the probe
    kernel needs a name no other test shares.
    """
    from repro.core.index import Grid, Threads, get_idx
    from repro.core.kernel import fn_acc

    class LogOnceProbeKernel:
        @fn_acc
        def __call__(self, acc, n, x, y):
            i = get_idx(acc, Grid, Threads)[0]
            if i < n:
                if x[i] > 0.5:  # data-dependent: always diverges
                    y[i] = 1.0

    n = 32
    rng = np.random.default_rng(3)
    x = rng.random(n)
    with caplog.at_level(logging.INFO, logger="repro.runtime.scheduler"):
        for _ in range(3):
            run_with_scheduler(
                "compiled", LogOnceProbeKernel(),
                WorkDivMembers.make(n, 1, 1), (n,),
                [x, np.zeros(n)],
            )
    msgs = [
        r.message for r in caplog.records
        if "divergent-control-flow" in r.message
        and "LogOnceProbeKernel" in r.message
    ]
    assert len(msgs) == 1
