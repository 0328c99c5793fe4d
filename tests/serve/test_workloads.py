"""Workload registry, validation, and the bit-identity contract:
batched execution must equal solo execution bit for bit."""

from __future__ import annotations

import numpy as np
import pytest

from repro import accelerator, create_task_kernel, get_dev_by_idx
from repro.core.errors import KernelError, ServeError
from repro.serve import (
    LaunchRequest,
    Workload,
    get_workload,
    register_workload,
    workload_names,
)


@pytest.fixture(scope="module")
def device():
    return get_dev_by_idx(accelerator("AccCpuSerial"), 0)


@pytest.fixture(scope="module")
def acc_type():
    return accelerator("AccCpuSerial")


def _solo(workload, request, acc_type, device):
    return workload.execute([request], acc_type, device)[0]


class TestRegistry:
    def test_builtins_registered(self):
        names = workload_names()
        for name in ("axpy", "scale", "gemm", "heat_equation"):
            assert name in names

    def test_unknown_workload_raises(self):
        with pytest.raises(ServeError, match="unknown workload"):
            get_workload("no_such_kernel")

    def test_register_custom(self):
        class Doubler(Workload):
            name = "test_doubler"

            def validate(self, request):
                pass

            def batch_key(self, request):
                return None

            def execute(self, requests, acc_type, device):
                return [
                    {"x": np.asarray(r.arrays["x"]) * 2} for r in requests
                ]

        register_workload(Doubler())
        assert get_workload("test_doubler").name == "test_doubler"


class TestValidation:
    def test_axpy_requires_arrays(self):
        with pytest.raises(ServeError):
            get_workload("axpy").validate(
                LaunchRequest(workload="axpy", params={"alpha": 1.0})
            )

    def test_axpy_rejects_shape_mismatch(self):
        with pytest.raises(ServeError):
            get_workload("axpy").validate(
                LaunchRequest(
                    workload="axpy",
                    params={"alpha": 1.0},
                    arrays={"x": np.zeros(4), "y": np.zeros(5)},
                )
            )

    def test_gemm_rejects_non_square(self):
        with pytest.raises(ServeError):
            get_workload("gemm").validate(
                LaunchRequest(
                    workload="gemm",
                    params={"alpha": 1.0, "beta": 0.0},
                    arrays={"A": np.zeros((4, 5)), "B": np.zeros((5, 4))},
                )
            )


class TestBitIdentity:
    """The acceptance criterion: results of batched execution are
    bit-identical to running each request alone."""

    def test_axpy_batched_equals_solo(self, acc_type, device):
        rng = np.random.default_rng(7)
        workload = get_workload("axpy")
        reqs = [
            LaunchRequest(
                workload="axpy",
                params={"alpha": 1.7},
                arrays={
                    "x": rng.standard_normal(257),
                    "y": rng.standard_normal(257),
                },
            )
            for _ in range(5)
        ]
        solo = [_solo(workload, r, acc_type, device) for r in reqs]
        merged = workload.execute(reqs, acc_type, device)
        for s, m in zip(solo, merged):
            assert np.array_equal(s["y"], m["y"])

    def test_axpy_ragged_sizes_batch(self, acc_type, device):
        rng = np.random.default_rng(8)
        workload = get_workload("axpy")
        reqs = [
            LaunchRequest(
                workload="axpy",
                params={"alpha": 0.5},
                arrays={
                    "x": rng.standard_normal(n),
                    "y": rng.standard_normal(n),
                },
            )
            for n in (3, 64, 1000)
        ]
        solo = [_solo(workload, r, acc_type, device) for r in reqs]
        merged = workload.execute(reqs, acc_type, device)
        for s, m in zip(solo, merged):
            assert np.array_equal(s["y"], m["y"])

    def test_gemm_batched_equals_solo(self, acc_type, device):
        rng = np.random.default_rng(9)
        n = 48
        workload = get_workload("gemm")
        reqs = [
            LaunchRequest(
                workload="gemm",
                params={"alpha": 1.0, "beta": 0.5},
                arrays={
                    "A": rng.standard_normal((n, n)),
                    "B": rng.standard_normal((n, n)),
                    "C": rng.standard_normal((n, n)),
                },
            )
            for _ in range(4)
        ]
        solo = [_solo(workload, r, acc_type, device) for r in reqs]
        merged = workload.execute(reqs, acc_type, device)
        for s, m in zip(solo, merged):
            assert np.array_equal(s["C"], m["C"])

    def test_gemm_matches_reference(self, acc_type, device):
        from repro.kernels import batched_gemm_reference

        rng = np.random.default_rng(10)
        n = 96  # spans two 64-row chunks
        A = rng.standard_normal((n, n))
        B = rng.standard_normal((n, n))
        C = rng.standard_normal((n, n))
        req = LaunchRequest(
            workload="gemm",
            params={"alpha": 2.0, "beta": -1.0},
            arrays={"A": A, "B": B, "C": C},
        )
        out = _solo(get_workload("gemm"), req, acc_type, device)
        ref = batched_gemm_reference(2.0, A[None], B[None], -1.0, C[None])[0]
        assert np.array_equal(out["C"], ref)

    def test_inputs_not_mutated(self, acc_type, device):
        rng = np.random.default_rng(11)
        x = rng.standard_normal(32)
        y = rng.standard_normal(32)
        x0, y0 = x.copy(), y.copy()
        req = LaunchRequest(
            workload="axpy",
            params={"alpha": 3.0},
            arrays={"x": x, "y": y},
        )
        _solo(get_workload("axpy"), req, acc_type, device)
        assert np.array_equal(x, x0)
        assert np.array_equal(y, y0)


class TestPlanReuse:
    """A workload holds one kernel instance, so same-shape requests
    resolve to one cached launch plan — and that plan lets go of a
    finished request's device arrays (regression: every request missed
    the plan cache, and each stale plan pinned its buffers until 512
    newer ones evicted it)."""

    #: An extent no other test uses, so an array of this many bytes can
    #: only be one of this test's.
    N = 12347
    REQUESTS = 24

    @staticmethod
    def reachable_arrays(roots, nbytes):
        """ndarrays of ``nbytes`` reachable from ``roots`` through data
        (not through classes, modules or code)."""
        import gc
        import types

        opaque = (type, types.ModuleType, types.FunctionType, types.MethodType)
        seen, found, stack = set(), [], list(roots)
        while stack:
            obj = stack.pop()
            if id(obj) in seen or isinstance(obj, opaque):
                continue
            seen.add(id(obj))
            if isinstance(obj, np.ndarray) and obj.nbytes == nbytes:
                found.append(obj)
            stack.extend(gc.get_referents(obj))
        return found

    @pytest.mark.parametrize(
        "workload, params, names",
        [
            ("axpy", {"alpha": 2.0}, ("x", "y")),
            ("scale", {"factor": 3.0}, ("x",)),
        ],
    )
    def test_one_plan_serves_every_request_and_pins_nothing(
        self, workload, params, names, rng
    ):
        import gc

        from repro.runtime import (
            ExecutionObserver,
            clear_plan_cache,
            observe,
            plan_cache_info,
        )
        from repro.serve import Gateway, ServeConfig

        class Plans(ExecutionObserver):
            def __init__(self):
                self.seen = {}

            def on_span_end(self, span):
                if span.name == "launch":
                    plan = span.attrs["plan"]
                    self.seen[id(plan)] = plan

        arrays = {name: rng.standard_normal(self.N) for name in names}
        nbytes = arrays["x"].nbytes
        clear_plan_cache()
        plans, sizes = Plans(), set()
        config = ServeConfig(enable_batching=False, batch_window=0.0)
        with observe(plans), Gateway(config) as gw:
            for _ in range(self.REQUESTS):
                gw.launch(workload, params=params, arrays=arrays).result(timeout=30)
                sizes.add(plan_cache_info()["size"])
            gw.shutdown(release_pools=False)
        info = plan_cache_info()
        assert sizes == {1}
        assert (info["misses"], info["hits"]) == (1, self.REQUESTS - 1)
        assert len(plans.seen) == 1

        gc.collect()
        pinned = self.reachable_arrays(plans.seen.values(), nbytes)
        assert pinned == [], f"{len(pinned)} request-sized arrays outlive the request"

    def test_distinct_signatures_pin_nothing(self, rng):
        """Requests of distinct signatures (a scalar each) leave one
        signature state each on the plan, and none of their arrays."""
        import gc

        from repro.runtime import clear_plan_cache, get_plan
        from repro.serve.workloads import _elementwise_workdiv

        acc = accelerator("AccCpuSerial")
        dev = get_dev_by_idx(acc, 0)
        workload = get_workload("axpy")
        clear_plan_cache()
        for alpha in range(self.REQUESTS):
            req = LaunchRequest(
                workload="axpy", params={"alpha": float(alpha)},
                arrays={"x": rng.standard_normal(self.N), "y": rng.standard_normal(self.N)},
            )
            _solo(workload, req, acc, dev)
        wd = _elementwise_workdiv(acc, dev, self.N, workload.kernel)
        y = np.zeros(self.N)
        plan = get_plan(
            create_task_kernel(acc, wd, workload.kernel, self.N, 0.0, y, y), dev
        )
        assert plan._record is None
        assert len(plan._signatures) == self.REQUESTS
        del req
        gc.collect()
        pinned = self.reachable_arrays([plan], y.nbytes)
        assert pinned == [], f"{len(pinned)} request-sized arrays outlive the request"


    def test_a_raising_request_pins_nothing(self):
        """A request whose kernel raises lets go of its arguments too
        (regression: the record stayed on the plan until its next
        request)."""
        from repro.runtime import clear_plan_cache, get_plan
        from repro.serve.workloads import _elementwise_workdiv

        acc = accelerator("AccCpuSerial")
        dev = get_dev_by_idx(acc, 0)
        workload = get_workload("axpy")
        clear_plan_cache()
        words = np.array(["a", "b", "c"])
        req = LaunchRequest(
            workload="axpy", params={"alpha": 2.0},
            arrays={"x": words, "y": words.copy()},
        )
        with pytest.raises(KernelError):
            _solo(workload, req, acc, dev)
        wd = _elementwise_workdiv(acc, dev, words.size, workload.kernel)
        plan = get_plan(
            create_task_kernel(acc, wd, workload.kernel, words.size, 2.0,
                               words, words),
            dev,
        )
        assert plan.launches == 1
        assert plan._record is None


@pytest.fixture
def cold_tuning(tmp_path, monkeypatch):
    """A tuning cache with no entries: the division is the lane rule."""
    from repro.tuning import TUNING_CACHE_ENV, reset_default_cache

    monkeypatch.setenv(TUNING_CACHE_ENV, str(tmp_path / "cache.json"))
    reset_default_cache()
    yield
    reset_default_cache()


def _lane(name):
    acc = accelerator(name)
    return acc, get_dev_by_idx(acc, 0)


def _old_elementwise_div(acc, dev, n):
    """The division serve launches used before spans: one block (or
    thread) per 256 elements."""
    from repro import divide_work

    props = acc.get_acc_dev_props(dev)
    return divide_work(n, props, acc.mapping_strategy, thread_elems=min(n, 256))


def _old_plate_div(h, w):
    from repro.core.vec import Vec
    from repro.core.workdiv import WorkDivMembers

    elems = Vec(min(h, 8), min(w, 16))
    return WorkDivMembers.make(Vec(h, w).ceil_div(elems), Vec(1, 1), elems)


@pytest.mark.usefixtures("cold_tuning")
class TestLaneDivision:
    """A block-level lane runs one span per block worker; the result
    bits are the old 256-element division's."""

    N = 2**16 + 3

    def test_serial_lane_is_one_block(self):
        from repro.serve.workloads import _elementwise_workdiv

        acc, dev = _lane("AccCpuSerial")
        wd = _elementwise_workdiv(acc, dev, self.N, get_workload("axpy").kernel)
        assert tuple(wd.grid_block_extent) == (1,)
        assert tuple(wd.block_thread_extent) == (1,)
        assert tuple(wd.thread_elem_extent) == (self.N,)

    def test_pooled_lane_is_one_block_per_worker(self):
        from repro.serve.workloads import _elementwise_workdiv

        acc, dev = _lane("AccCpuOmp2Blocks")
        workers = acc.get_acc_dev_props(dev).max_block_workers
        wd = _elementwise_workdiv(acc, dev, self.N, get_workload("axpy").kernel)
        assert tuple(wd.grid_block_extent) == (workers,)
        assert tuple(wd.block_thread_extent) == (1,)
        assert tuple(wd.thread_elem_extent) == (-(-self.N // workers),)

    def test_thread_level_lane_keeps_256_element_threads(self):
        from repro.serve.workloads import _elementwise_workdiv

        acc, dev = _lane("AccCpuThreads")
        wd = _elementwise_workdiv(acc, dev, self.N, get_workload("axpy").kernel)
        assert tuple(wd.thread_elem_extent) == (256,)
        assert wd == _old_elementwise_div(acc, dev, self.N)

    @pytest.mark.parametrize("backend", ["AccCpuSerial", "AccCpuOmp2Blocks"])
    @pytest.mark.parametrize("n", [1, 255, 257, 2**16 + 3])
    def test_elementwise_bits_match_old_division(self, backend, n, runner, rng):
        acc, dev = _lane(backend)
        x = rng.standard_normal(n)
        y = rng.standard_normal(n)
        old_div = _old_elementwise_div(acc, dev, n)

        axpy = get_workload("axpy")
        got = _solo(
            axpy,
            LaunchRequest(workload="axpy", params={"alpha": 1.3}, arrays={"x": x, "y": y}),
            acc, dev,
        )["y"]
        want = runner.run(acc, old_div, axpy.kernel, n, 1.3, arrays={"x": x, "y": y})["y"]
        assert np.array_equal(got, want)

        scale = get_workload("scale")
        got = _solo(
            scale,
            LaunchRequest(workload="scale", params={"factor": -0.7}, arrays={"x": x}),
            acc, dev,
        )["out"]
        want = runner.run(
            acc, old_div, scale.kernel, n, -0.7, arrays={"x": x, "out": np.zeros(n)}
        )["out"]
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("backend", ["AccCpuSerial", "AccCpuOmp2Blocks"])
    def test_heat_bits_match_old_tiles(self, backend, runner, rng):
        acc, dev = _lane(backend)
        h, w, steps, c = 97, 131, 7, 0.2
        plate = rng.standard_normal((h, w))
        heat = get_workload("heat_equation")
        got = _solo(
            heat,
            LaunchRequest(
                workload="heat_equation",
                params={"steps": steps, "c": c},
                arrays={"plate": plate},
            ),
            acc, dev,
        )["plate"]
        want = plate
        for _ in range(steps):
            want = runner.run(
                acc, _old_plate_div(h, w), heat.kernel, h, w, c,
                arrays={"src": want, "dst": np.zeros_like(plate)},
            )["dst"]
        assert np.array_equal(got, want)

    def test_batched_spans_equal_solo(self, rng):
        acc, dev = _lane("AccCpuOmp2Blocks")
        workload = get_workload("scale")
        reqs = [
            LaunchRequest(
                workload="scale", params={"factor": 2.5},
                arrays={"x": rng.standard_normal(n)},
            )
            for n in (1, 300, 5001)
        ]
        solo = [_solo(workload, r, acc, dev) for r in reqs]
        merged = workload.execute(reqs, acc, dev)
        for s, m in zip(solo, merged):
            assert np.array_equal(s["out"], m["out"])

    def test_division_resolves_once_per_tuning_generation(self, monkeypatch, rng):
        import repro.tuning
        from repro.runtime import CountingObserver, observe
        from repro.tuning.cache import bump_tuning_generation

        calls = []
        auto_divide = repro.tuning.auto_divide

        def counting(*args, **kwargs):
            calls.append(args[0])
            return auto_divide(*args, **kwargs)

        monkeypatch.setattr(repro.tuning, "auto_divide", counting)
        acc, dev = _lane("AccCpuSerial")
        n = 7919  # an extent no other test requests
        req = LaunchRequest(
            workload="axpy", params={"alpha": 2.0},
            arrays={"x": rng.standard_normal(n), "y": rng.standard_normal(n)},
        )
        workload = get_workload("axpy")
        counts = CountingObserver()
        with observe(counts):
            for _ in range(5):
                _solo(workload, req, acc, dev)
        assert calls == [n]
        assert counts.snapshot()["tuning_cache_misses"] == 1

        bump_tuning_generation()
        for _ in range(3):
            _solo(workload, req, acc, dev)
        assert calls == [n, n]
