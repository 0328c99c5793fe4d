"""The generated program: what a warm launch executes, what its text
may contain, and the compute-then-commit contract of ``replay.py``."""

import ast
import pathlib
import re
import sys
import types

import numpy as np
import pytest

from repro import (
    QueueBlocking,
    Vec,
    WorkDivMembers,
    accelerator,
    create_task_kernel,
    get_dev_by_idx,
    mem,
)
from repro.compile import (
    FALLBACK_REASONS,
    CompiledReplay,
    CompileFallback,
    compile_stats,
    reset_compile_stats,
    trace_kernel,
)
from repro.compile.replay import _signature
from repro.core.index import Grid, Threads, get_idx
from repro.core.kernel import fn_acc
from repro.kernels import AxpyElementsKernel, AxpyKernel, Jacobi2DKernel
from repro.runtime import clear_plan_cache

Acc = accelerator("AccCpuOmp2Blocks")


class Props:
    warp_size = 1


def replay_of(kernel, wd, args) -> CompiledReplay:
    plan = types.SimpleNamespace(kernel=kernel, work_div=wd)
    return CompiledReplay(
        plan, trace_kernel(kernel, wd, Props(), args), _signature(args)
    )


@pytest.fixture
def compiled_env(monkeypatch):
    monkeypatch.setenv("REPRO_SCHEDULER", "compiled")
    monkeypatch.delenv("REPRO_COMPILE_CROSSCHECK", raising=False)
    clear_plan_cache()
    reset_compile_stats()
    yield
    clear_plan_cache()


class TestWarmLaunch:
    def test_no_tree_walk_on_a_warm_launch(self, compiled_env):
        """The per-launch evaluator is gone: a warm compiled launch runs
        nothing defined in compile/exprs.py but node constructors, and
        never enters the tracer or the generator."""
        dev = get_dev_by_idx(Acc, 0)
        q = QueueBlocking(dev)
        n = 64
        bx = mem.alloc(dev, (n,))
        by = mem.alloc(dev, (n,))
        mem.copy(q, bx, np.arange(float(n)))
        mem.copy(q, by, np.zeros(n))
        task = create_task_kernel(
            Acc, WorkDivMembers.make(4, 1, 16), AxpyElementsKernel(),
            n, 2.0, bx, by,
        )
        q.enqueue(task)  # cold: trace + generate
        seen = set()

        def profile(frame, event, arg):
            if event == "call":
                code = frame.f_code
                seen.add((pathlib.Path(code.co_filename).name, code.co_name))

        sys.setprofile(profile)
        try:
            q.enqueue(task)
        finally:
            sys.setprofile(None)
        assert compile_stats()["compiled_launches"] == 2
        assert ("<repro.compile program>", "program") in seen
        walked = {
            (f, name) for f, name in seen
            if f in ("exprs.py", "tracer.py", "codegen.py")
            and name != "__init__"
        }
        assert walked == set()

    def test_program_keeps_no_state_between_calls(self):
        """Same arguments, same bytes, any number of times; the scratch
        of one call is never the scratch of the next."""
        x, y = np.arange(8.0), np.ones(8)
        replay = replay_of(
            AxpyElementsKernel(), WorkDivMembers.make(2, 1, 4), (8, 0.5, x, y)
        )
        replay.run((8, 0.5, x, y))
        first = y.copy()
        y[:] = 1.0
        replay.run((8, 0.5, x, y))
        np.testing.assert_array_equal(y, first)
        assert replay._program.__closure__ is None
        assert not any(
            isinstance(v, np.ndarray) and v.dtype == np.float64
            for v in replay._program.__globals__.values()
        )


class TestSource:
    def test_valid_python_without_argument_literals(self):
        n, alpha = 1237, 2.71828125
        x, y = np.arange(float(n)), np.zeros(n)
        replay = replay_of(
            AxpyKernel(), WorkDivMembers.make(1300, 1, 1), (n, alpha, x, y)
        )
        tree = ast.parse(replay.source)
        names = {f.name for f in tree.body if isinstance(f, ast.FunctionDef)}
        assert "program" in names
        assert "1237" not in replay.source and "2.718" not in replay.source
        # Constants enter through the globals: the only literals in the
        # text are argument positions, the generator's own 0 / 1 and
        # the `[...]` of a commit.
        literals = {
            node.value for node in ast.walk(tree)
            if isinstance(node, ast.Constant)
        }
        assert literals <= {0, 1, 2, 3, Ellipsis}
        assert "repr" not in replay.source

    def test_guarded_extent_is_not_in_the_text(self):
        grid = np.random.default_rng(0).random((9, 14))
        wd = WorkDivMembers.make(Vec(3, 4), Vec(1, 1), Vec(3, 4))
        replay = replay_of(
            Jacobi2DKernel(), wd, (9, 14, 0.2, grid, np.zeros((9, 14)))
        )
        ast.parse(replay.source)
        assert not re.search(r"\b(9|14|13|8|0\.2)\b", replay.source)
        assert {"def program", "def guards", "def aliased"} <= set(
            re.findall(r"def \w+", replay.source)
        )

    def test_scratch_reuse_and_the_committing_ufunc(self):
        """`out=` only ever names an array the program allocated and
        nobody else reads — or, for a single store's last ufunc, the
        destination itself, inside the commit block."""
        x, y = np.arange(8.0), np.ones(8)
        wd = WorkDivMembers.make(2, 1, 4)
        replay = replay_of(AxpyElementsKernel(), wd, (8, 0.5, x, y))
        body, commit = replay.source.split("try:")[:2]
        assert "out=" not in body.split("def program")[1]
        assert commit.count("out=") == 1  # np.add writes y[:n] directly
        replay.run((8, 0.5, x, y))
        np.testing.assert_array_equal(y, 0.5 * np.arange(8.0) + 1.0)

        from repro.core.element import grid_strided_spans

        @fn_acc
        def chain(acc, n, x, y, z):
            for span in grid_strided_spans(acc, n):
                t = x[span] * 2.0
                y[span] = (t + 1.0) * 3.0 - x[span]
                z[span] = t

        z = np.zeros(8)
        replay = replay_of(chain, wd, (8, x, y, z))
        program = replay.source.split("def program")[1]
        # Two stores: nothing writes through, `t` is read twice and kept,
        # the `+`/`*`/`-` chain runs in one scratch array.
        assert program.split("try:")[1].count("out=") == 0
        assert program.split("try:")[0].count("out=") == 2
        replay.run((8, x, y, z))
        np.testing.assert_array_equal(y, (x * 2.0 + 1.0) * 3.0 - x)
        np.testing.assert_array_equal(z, x * 2.0)


class TestContract:
    def test_replay_failure_leaves_arguments_untouched(self):
        """Compute, then commit: a replay that cannot finish computing
        (here the second store's gather runs out of bounds) raises a
        classified fallback before any byte changed."""
        @fn_acc
        def two_stores(acc, n, x, j, y, z):
            i = get_idx(acc, Grid, Threads)[0]
            if i < n:
                y[i] = x[i] + 1.0
                z[i] = x[j[i]] * 2.0

        wd = WorkDivMembers.make(8, 1, 1)
        x, y, z = np.arange(8.0), np.zeros(8), np.zeros(8)
        j = np.arange(8)[::-1].copy()
        replay = replay_of(two_stores, wd, (8, x, j, y, z))
        bad = j.copy()
        bad[3] = 99
        y[:], z[:] = -1.0, -2.0
        with pytest.raises(CompileFallback) as e:
            replay.run((8, x, bad, y, z))
        assert e.value.reason == "replay-error"
        assert (y == -1.0).all() and (z == -2.0).all()
        replay.run((8, x, j, y, z))
        np.testing.assert_array_equal(y, x + 1.0)
        np.testing.assert_array_equal(z, x[::-1] * 2.0)

    def test_floating_point_trap_is_a_fallback_not_a_partial_write(self):
        """Under errstate(all="raise") a ufunc raises after its loop ran;
        the program only ever targets its own scratch, so the arguments
        are as they were and interpretation decides."""
        x = np.full(8, 1e308)
        y = np.ones(8)
        wd = WorkDivMembers.make(2, 1, 4)
        replay = replay_of(AxpyElementsKernel(), wd, (8, 10.0, x, y))
        with np.errstate(all="raise"):
            with pytest.raises(CompileFallback) as e:
                replay.run((8, 10.0, x, y))
        assert e.value.reason == "replay-error"
        assert (y == 1.0).all()

    def test_trap_in_the_committing_ufunc_is_a_kernel_error(self):
        """The one operation that runs in the commit phase cannot fall
        back: numpy raises a floating-point trap only after the loop
        wrote, so it is reported the way interpretation reports it."""
        from repro.core.errors import KernelError

        x = np.full(8, 1.5e308)
        y = np.full(8, 1.5e308)
        wd = WorkDivMembers.make(2, 1, 4)
        replay = replay_of(AxpyElementsKernel(), wd, (8, 1.0, x, y))
        with np.errstate(all="raise"):
            with pytest.raises(KernelError, match="mid-commit"):
                replay.run((8, 1.0, x, y))

    def test_stored_views_are_materialised_before_the_first_commit(self):
        """Two stores, the second's value a view of what the first
        writes: it must hold the bytes from before the launch."""
        from repro.core.element import grid_strided_spans

        @fn_acc
        def swap(acc, n, a, b):
            for span in grid_strided_spans(acc, n):
                old_a = a[span]
                a[span] = b[span]
                b[span] = old_a

        a, b = np.arange(8.0), -np.arange(8.0)
        replay = replay_of(swap, WorkDivMembers.make(2, 1, 4), (8, a, b))
        replay.run((8, a, b))
        np.testing.assert_array_equal(a, -np.arange(8.0))
        np.testing.assert_array_equal(b, np.arange(8.0))


class TestClosedReasons:
    def test_unknown_slug_is_rejected(self):
        with pytest.raises(ValueError, match="unclassified"):
            CompileFallback("it-broke", "somehow")
        assert CompileFallback("barrier").reason == "barrier"

    def test_model_doc_lists_exactly_the_constant(self):
        text = (
            pathlib.Path(__file__).parents[2] / "docs" / "MODEL.md"
        ).read_text()
        para = text[text.index("closed set of compile reasons"):]
        para = para[para.index(":") + 1:para.index(".  The compiled scheduler")]
        listed = set(re.findall(r"`([a-z-]+)`", para))
        assert listed == FALLBACK_REASONS

    def test_every_reason_raised_in_the_package_is_in_the_set(self):
        src = pathlib.Path(__file__).parents[2] / "src" / "repro" / "compile"
        raised = set()
        for path in src.glob("*.py"):
            raised |= set(re.findall(
                r'CompileFallback\(\s*"([a-z-]+)"', path.read_text()
            ))
            raised |= set(re.findall(
                r'"fallback",\s*"([a-z-]+)"', path.read_text()
            ))
        assert raised and raised <= FALLBACK_REASONS
