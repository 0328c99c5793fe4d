"""Row spans and ``@``: ``X[span, :] @ B`` lowers to a certified product.

The OpenMP-style DGEMM (paper Fig. 5) multiplies row chunks of the
grid-strided loop.  The compiled replay runs one whole ``x @ b`` for a
layout (shapes, strides, dtypes, chunk rows) whose certificate — both
forms compared on two seeded random operands of that layout — matched
bit for bit; any other layout keeps every chunk's BLAS call (one batched
``np.matmul`` over the full chunks, one product for the tail).  Either
way the replay is bit-identical to interpretation.  Every form outside
``2-d row span @ whole 2-d array argument`` falls back with its slug.
"""

import numpy as np
import pytest

from repro import WorkDivMembers
from repro.compile import codegen, compile_stats, reset_compile_stats
from repro.compile.codegen import _chunked_matmul, _span_matmul
from repro.compile.exprs import SpanMatMul, SpanStore
from repro.compile.tracer import CompileFallback, trace_kernel
from repro.core.element import grid_strided_spans
from repro.core.index import Grid, Threads, get_idx
from repro.core.vec import Vec
from repro.kernels import GemmOmpStyleKernel, IotaKernel

from .launches import assert_bit_identical


class FakeProps:
    warp_size = 1


def trace(kernel, wd, args):
    return trace_kernel(kernel, wd, FakeProps(), args)


def fallback(kernel, wd, args) -> CompileFallback:
    with pytest.raises(CompileFallback) as e:
        trace(kernel, wd, args)
    return e.value


def gemm_args(n, alpha=1.5, beta=0.5, seed=0):
    rng = np.random.default_rng(seed)
    return (n, alpha, rng.random((n, n)), rng.random((n, n)), beta,
            rng.random((n, n)))


class TestLowering:
    def test_gemm_records_one_chunked_matmul(self):
        n, rows = 12, 4
        t = trace(GemmOmpStyleKernel(), WorkDivMembers.make(3, 1, rows),
                  gemm_args(n))
        (store,) = t.stores
        assert isinstance(store, SpanStore) and store.pos == 5
        (mm,) = [node for node in t.order if isinstance(node, SpanMatMul)]
        assert mm.pos == 3 and mm.chunk == rows

    def test_np_matmul_lowers_like_the_operator(self):
        def kernel(acc, n, A, B, C):
            for rows in grid_strided_spans(acc, n):
                C[rows, :] = np.matmul(A[rows, :], B)

        rng = np.random.default_rng(1)
        args = (8, rng.random((8, 3)), rng.random((3, 5)), np.zeros((8, 5)))
        t = trace(kernel, WorkDivMembers.make(2, 1, 4), args)
        assert any(isinstance(node, SpanMatMul) for node in t.order)

    @pytest.mark.parametrize("rows,k,m,chunk", [
        (256, 256, 256, 16), (37, 5, 9, 8), (7, 3, 4, 16), (16, 1, 1, 1),
        (0, 4, 4, 4),
    ])
    def test_chunked_matmul_equals_the_chunk_loop(self, rows, k, m, chunk):
        rng = np.random.default_rng(rows + k)
        # Pitched rows: a strided view, as a padded device buffer is.
        x = rng.random((rows, k + 3))[:, :k]
        b = rng.random((k, m))
        want = np.empty((rows, m))
        for s in range(0, rows, chunk):
            want[s:s + chunk] = x[s:s + chunk] @ b
        got = _chunked_matmul(x, b, chunk, np.dtype(np.float64))
        assert np.array_equal(got, want)


# -- certificates ---------------------------------------------------------


@pytest.fixture
def certificates(monkeypatch):
    """An empty certificate memo and zeroed verdict counts; yields the
    memo and the list of shapes ``codegen._probe`` was called for."""
    memo = {}
    monkeypatch.setattr(codegen, "_certificates", memo)
    probe = codegen._probe
    probes = []

    def counted(*args):
        probes.append(args[1])
        return probe(*args)

    monkeypatch.setattr(codegen, "_probe", counted)
    reset_compile_stats()
    yield memo, probes


def _gemm_launch(n, rows, blocks=4, seed=3):
    rng = np.random.default_rng(seed)
    A, B, C = rng.random((n, n)), rng.random((n, n)), rng.random((n, n))
    return assert_bit_identical(
        GemmOmpStyleKernel(), WorkDivMembers.make(blocks, 1, rows),
        (n, 1.5, 0.25), [A, B, C],
        layout=lambda s, b: (s[0], s[1], b[0], b[1], s[2], b[2]),
    )


class TestCertificate:
    def test_certified_shape_runs_one_whole_product(self, certificates):
        stats = _gemm_launch(256, 16)
        assert stats["compiled_launches"] == 1
        assert stats["matmul"] == {"whole": 1, "chunked": 0}

    def test_failed_certificate_keeps_the_chunks(self, certificates):
        stats = _gemm_launch(255, 16)
        assert stats["compiled_launches"] == 1
        assert stats["matmul"] == {"whole": 0, "chunked": 1}
        memo, _probes = certificates
        assert list(memo.values()) == [_chunked_matmul]

    def test_pitched_rows_are_their_own_layout(self, certificates):
        memo, _probes = certificates
        rng = np.random.default_rng(5)
        b = rng.random((256, 256))
        dense = rng.random((256, 256))
        pitched = rng.random((256, 259))[:, :256]
        for x in (dense, pitched):
            want = np.empty((256, 256))
            for s in range(0, 256, 16):
                want[s:s + 16] = x[s:s + 16] @ b
            got = _span_matmul(x, b, 16, np.dtype(np.float64))
            assert got.tobytes() == want.tobytes()
        assert sorted(key[1] for key in memo) == [(2048, 8), (2072, 8)]
        verdicts = compile_stats()["matmul"]
        assert sum(verdicts.values()) == 2

    def test_second_launch_probes_nothing(self, certificates):
        _memo, probes = certificates
        _gemm_launch(256, 16)
        assert probes and compile_stats()["matmul"]["whole"] == 1
        del probes[:]
        stats = _gemm_launch(256, 16, seed=4)
        assert stats["compiled_launches"] == 1
        assert probes == []
        assert stats["matmul"] == {"whole": 0, "chunked": 0}


# -- compiled against interpreted ---------------------------------------
#
# The bit-identity sweep over extents, chunk lengths, grids and
# alpha/beta is test_property_crosscheck.test_gemm_omp_style_bit_identical.


def test_b_aliasing_c_interprets():
    """``C = alpha * A @ C + beta * C``: every chunk reads all of ``C``,
    including the rows earlier chunks wrote — only interpretation has
    that order, so the launch must not replay."""
    n, rows = 24, 4
    _n, _a, A, _B, _b, C = gemm_args(n, seed=7)
    stats = assert_bit_identical(
        GemmOmpStyleKernel(), WorkDivMembers.make(2, 1, rows), (n, 1.5, 0.5),
        [A, C], layout=lambda s, b: (s[0], s[1], b[0], b[1], s[2], b[1]),
    )
    assert stats["compiled_launches"] == 0
    assert stats["fallbacks"] == {"load-after-store": 1}


# -- span bounds --------------------------------------------------------


def _bounds_kernel(acc, n, y):
    for span in grid_strided_spans(acc, n):
        y[span] = span.start + 0.5 * span.stop


class TestSpanBounds:
    """``span.start``/``span.stop`` are numbers only when the loop is
    one chunk; with several, each chunk has its own and the trace must
    not pick one."""

    def test_one_chunk_reads_zero_and_the_guarded_extent(self):
        seen = []

        def kernel(acc, n, y):
            for span in grid_strided_spans(acc, n):
                seen.append((span.start, span.stop))
                y[span] = 1.0

        t = trace(kernel, WorkDivMembers.make(2, 1, 16), (10, np.zeros(10)))
        assert seen == [(0, 10)]
        assert [expected for _expr, expected in t.guards] == [10, 10]

    @pytest.mark.parametrize("n,rows", [(10, 3), (4, 2), (0, 4)])
    def test_several_chunks_or_none_fall_back(self, n, rows):
        cf = fallback(_bounds_kernel, WorkDivMembers.make(2, 1, rows),
                      (n, np.zeros(max(n, 1))))
        assert cf.reason == "span-shape"
        assert "`span.start`" in cf.detail

    @pytest.mark.parametrize("n,rows,blocks,compiled", [
        (10, 3, 2, 0),   # four chunks, two threads: falls back
        (10, 16, 2, 1),  # one chunk: compiles
    ])
    def test_compiled_equals_interpreted(self, n, rows, blocks, compiled):
        stats = assert_bit_identical(
            _bounds_kernel, WorkDivMembers.make(blocks, 1, rows), (n,),
            [np.zeros(n)],
        )
        assert stats["compiled_launches"] == compiled
        assert stats["fallbacks"] == ({} if compiled else {"span-shape": 1})

    def test_iota_falls_back_naming_the_access(self):
        cf = fallback(IotaKernel(), WorkDivMembers.make(4, 1, 2),
                      (8, 0, np.zeros(8)))
        assert cf.reason == "span-shape"
        assert "`span.start`" in cf.detail

    def test_one_chunk_iota_falls_back_naming_the_op(self):
        cf = fallback(IotaKernel(), WorkDivMembers.make(1, 1, 8),
                      (8, 0, np.zeros(8)))
        assert cf.reason == "unsupported-op"
        assert "operand of add" in cf.detail


# -- every other form falls back, classified -----------------------------


def _span_kernel(body):
    def kernel(acc, n, x, A, B, C):
        for rows in grid_strided_spans(acc, n):
            body(acc, rows, x, A, B, C)
    return kernel


def _partial_trailing(acc, rows, x, A, B, C):
    C[rows, 1:] = A[rows, 1:]


def _index_trailing(acc, rows, x, A, B, C):
    C[rows, 0] = 1.0


def _span_off_axis_0(acc, rows, x, A, B, C):
    C[:, rows] = 1.0


def _row_span_of_1d(acc, rows, x, A, B, C):
    x[rows, :] = 1.0


def _matmul_1d_span(acc, rows, x, A, B, C):
    C[rows, :] = x[rows] @ B


def _span_right_operand(acc, rows, x, A, B, C):
    C[rows, :] = A[rows, :] @ B[rows, :]


def _lane_right_operand(acc, rows, x, A, B, C):
    i = get_idx(acc, Grid, Threads)[0]
    C[rows, :] = A[rows, :] @ B[i]


def _scalar_right_operand(acc, rows, x, A, B, C):
    C[rows, :] = A[rows, :] @ 2.0


def _traced_right_operand(acc, rows, x, A, B, C):
    C[rows, :] = B @ A[rows, :]


def _lane_left_operand(acc, rows, x, A, B, C):
    i = get_idx(acc, Grid, Threads)[0]
    C[rows, :] = x[i] @ B


def _mismatched_inner_axis(acc, rows, x, A, B, C):
    C[rows, :] = A[rows, :] @ C


def _store_to_whole_operand(acc, rows, x, A, B, C):
    B[rows, :] = A[rows, :] @ B


def _whole_operand_after_store(acc, rows, x, A, B, C):
    B[rows, :] = 1.0
    C[rows, :] = A[rows, :] @ B


def _broadcast_1d_against_rows(acc, rows, x, A, B, C):
    C[rows, :] = x[rows] + A[rows, :]


def _store_1d_into_rows(acc, rows, x, A, B, C):
    C[rows, :] = x[rows]


def _generalised_ufunc(acc, rows, x, A, B, C):
    x[rows] = np.vecdot(A[rows, :], A[rows, :])


def _uniform_store_in_the_loop(acc, rows, x, A, B, C):
    x[0] = x[0] + 1.0


def _lane_store_in_the_loop(acc, rows, x, A, B, C):
    x[get_idx(acc, Grid, Threads)[0]] = 1.0


NEGATIVE = [
    ("partial-trailing-slice", _partial_trailing, "span-shape"),
    ("integer-trailing-index", _index_trailing, "span-shape"),
    ("span-off-axis-0", _span_off_axis_0, "span-shape"),
    ("row-span-of-a-1-d-array", _row_span_of_1d, "span-shape"),
    ("matmul-on-a-1-d-span", _matmul_1d_span, "span-shape"),
    ("span-domain-right-operand", _span_right_operand, "unsupported-op"),
    ("lane-dependent-right-operand", _lane_right_operand, "unsupported-op"),
    ("scalar-right-operand", _scalar_right_operand, "unsupported-op"),
    ("traced-value-on-the-right", _traced_right_operand, "unsupported-op"),
    ("lane-dependent-left-operand", _lane_left_operand, "unsupported-op"),
    ("inner-axes-do-not-match", _mismatched_inner_axis, "span-shape"),
    ("store-to-the-whole-operand", _store_to_whole_operand,
     "load-after-store"),
    ("whole-operand-read-after-a-store", _whole_operand_after_store,
     "load-after-store"),
    ("1-d-span-broadcast-against-rows", _broadcast_1d_against_rows,
     "span-shape"),
    ("1-d-span-stored-into-rows", _store_1d_into_rows, "span-shape"),
    ("generalised-ufunc", _generalised_ufunc, "unsupported-op"),
    ("uniform-store-in-the-loop", _uniform_store_in_the_loop, "span-shape"),
    ("lane-store-in-the-loop", _lane_store_in_the_loop, "span-shape"),
]


@pytest.mark.parametrize(
    "body,slug", [(b, s) for _name, b, s in NEGATIVE],
    ids=[name for name, _b, _s in NEGATIVE],
)
def test_unsupported_form_falls_back_with_its_slug(body, slug):
    n, k, m = 8, 5, 6
    rng = np.random.default_rng(2)
    args = (n, rng.random(n), rng.random((n, k)), rng.random((k, m)),
            rng.random((n, m)))
    assert fallback(
        _span_kernel(body), WorkDivMembers.make(2, 1, 4), args
    ).reason == slug


@pytest.mark.parametrize("n,rows,blocks", [
    (8, 2, 1),  # one thread runs four chunks: the body runs four times
    (3, 2, 4),  # threads 2 and 3 run no chunk: their stores never happen
    (0, 2, 1),  # no chunk at all
])
def test_stores_off_the_span_interpret(n, rows, blocks):
    """The loop body runs once per chunk, in the threads that have one;
    a store not through the span would replay once, in every lane."""

    def kernel(acc, n, y, z):
        for span in grid_strided_spans(acc, n):
            y[span] = 2.0
            z[0] = z[0] + 1.0
            z[get_idx(acc, Grid, Threads)[0] + 1] = 1.0

    stats = assert_bit_identical(
        kernel, WorkDivMembers.make(blocks, 1, rows), (n,),
        [np.zeros(max(n, 1)), np.zeros(blocks + 1)],
    )
    assert stats["fallbacks"] == {"span-shape": 1}


def test_spans_on_a_multi_axis_grid_fall_back():
    """Threads that differ off axis 0 each run every span of the loop;
    one collapsed span cannot replay that."""
    t = WorkDivMembers.make(Vec(2, 2), Vec(1, 1), Vec(4, 1))
    assert fallback(
        GemmOmpStyleKernel(), t, gemm_args(8)
    ).reason == "span-shape"
