"""Workload registry, validation, and the bit-identity contract:
batched execution must equal solo execution bit for bit."""

from __future__ import annotations

import numpy as np
import pytest

from repro import accelerator, get_dev_by_idx
from repro.core.errors import ServeError
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

            def on_plan_cache(self, plan, hit):
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
