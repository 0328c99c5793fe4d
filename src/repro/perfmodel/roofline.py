"""Hierarchical roofline: kernel characteristics x machine model -> time.

The model is a max-of-ceilings roofline with three ceilings plus two
additive overheads::

    seconds = max(compute, on_chip, dram) + sync + overhead

* **compute** — ``flops / (peak * compute_eff)`` where ``compute_eff``
  folds device utilisation (how much of the machine the work division
  and back-end can occupy) and SIMD efficiency (scalar element loops
  forfeit the vector lanes the peak assumes).
* **on_chip** — traffic through the cache / shared-memory level that
  serves the kernel's per-block working set.  This ceiling, not
  compute, is what pins tiled DGEMM near 20 % of peak on every machine
  (paper Fig. 9) — an SMX moving 16 bytes of shared memory per FMA
  cannot feed its FPUs.
* **dram** — global-memory traffic over the device bandwidth, degraded
  by the *device-effective* access pattern
  (:func:`~repro.perfmodel.kernel_model.device_effective_pattern`) and
  inflated to the spill traffic when the working set fits no cache.
* **sync** — block barrier generations: ~free on a GPU, OS-futex
  expensive on CPU thread back-ends.
* **overhead** — kernel-launch and extra API-call costs, plus the
  abstraction layer's relative cost applied multiplicatively
  (paper Sec. 4.2.1's <6 %).

Constants are physical or vendor-published except two documented
compiler-efficiency constants (:data:`CPU_AUTOVEC_EFFICIENCY`,
:data:`CPU_COMPILER_CONTRACTS_FMA`) and the paper-measured abstraction
overhead fraction carried by kernels.  There is no per-figure tuning
knob.  The model's job is *shape fidelity* — who wins, by what factor,
where the crossovers are — not absolute microseconds (DESIGN.md,
acceptance criteria).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from ..core.errors import ModelError
from ..core.workdiv import WorkDivMembers
from ..hardware.cache import AccessPattern, CacheModel
from ..hardware.specs import HardwareSpec
from .kernel_model import KernelCharacteristics, device_effective_pattern

__all__ = [
    "PredictedTime",
    "predict_time",
    "predict_launch_seconds",
    "MachineResources",
    "machine_resources",
]

#: Seconds per kernel launch (driver + runtime queueing).
LAUNCH_OVERHEAD_S = {"gpu": 5e-6, "cpu": 2e-6}

#: CPU block barrier: base futex cost plus a per-participant term.
CPU_BARRIER_BASE_S = 1e-7
CPU_BARRIER_PER_THREAD_S = 1e-9

#: GPU barrier: a few cycles per warp, folded into one constant.
GPU_BARRIER_S = 2e-9

#: Warps per SM the latency-hiding model wants resident.
GPU_NEED_WARPS_PER_SM = 16

#: Fraction of the SIMD lanes gcc 4.9's auto-vectoriser realises on
#: vector-friendly inner loops (vs hand intrinsics).  One of the two
#: compiler-efficiency constants of the model; see DESIGN.md.
CPU_AUTOVEC_EFFICIENCY = 0.4

#: gcc 4.9 compiles C/C++ with -ffp-contract=off semantics by default,
#: so CPU code issues separate mul+add; machines whose peak assumes FMA
#: then cap at half peak.  nvcc contracts by default, so GPU code keeps
#: full FMA throughput.  The second compiler-efficiency constant.
CPU_COMPILER_CONTRACTS_FMA = False

#: Hardware residency limits per SM (Kepler).
GPU_MAX_BLOCKS_PER_SM = 16
GPU_MAX_THREADS_PER_SM = 2048


@dataclass(frozen=True)
class MachineResources:
    """The slice of a machine one kernel launch can use."""

    peak_gflops: float
    dram_bandwidth_gbs: float
    cores: int
    clock_ghz: float


def machine_resources(spec: HardwareSpec, backend_kind: str) -> MachineResources:
    """Resources available to a single launch.

    CPU back-ends span the whole machine (OpenMP crosses sockets, as in
    the paper's node-level measurements); GPU launches own one device.
    """
    if spec.kind != backend_kind:
        raise ModelError(
            f"backend kind {backend_kind!r} cannot target machine "
            f"{spec.key!r} of kind {spec.kind!r}"
        )
    if backend_kind == "gpu":
        return MachineResources(
            peak_gflops=spec.device_peak_gflops_dp,
            dram_bandwidth_gbs=spec.global_mem_bandwidth_gbs / spec.device_count,
            cores=spec.cores_per_device,
            clock_ghz=spec.effective_clock_ghz,
        )
    return MachineResources(
        peak_gflops=spec.peak_gflops_dp,
        dram_bandwidth_gbs=spec.global_mem_bandwidth_gbs,
        cores=spec.total_cores,
        clock_ghz=spec.effective_clock_ghz,
    )


@dataclass(frozen=True)
class PredictedTime:
    """Model output: the launch time and its decomposition."""

    seconds: float
    compute_seconds: float
    on_chip_seconds: float
    dram_seconds: float
    sync_seconds: float
    overhead_seconds: float
    flops: float
    peak_gflops: float
    factors: Dict[str, float] = field(default_factory=dict)

    @property
    def gflops(self) -> float:
        return self.flops / self.seconds / 1e9 if self.seconds > 0 else 0.0

    @property
    def fraction_of_peak(self) -> float:
        return self.gflops / self.peak_gflops if self.peak_gflops else 0.0

    @property
    def bound(self) -> str:
        """Which ceiling dominates."""
        parts = {
            "compute": self.compute_seconds,
            "on_chip": self.on_chip_seconds,
            "dram": self.dram_seconds,
            "sync": self.sync_seconds,
            "overhead": self.overhead_seconds,
        }
        return max(parts, key=parts.get)


def _gpu_efficiency(spec: HardwareSpec, wd: WorkDivMembers) -> Dict[str, float]:
    """Occupancy and warp efficiency of a work division on a GPU."""
    warp = spec.warp_size
    threads_per_block = wd.block_thread_count
    warps_per_block = -(-threads_per_block // warp)
    warp_eff = threads_per_block / (warps_per_block * warp)

    blocks_per_sm = min(
        GPU_MAX_BLOCKS_PER_SM,
        max(1, GPU_MAX_THREADS_PER_SM // max(threads_per_block, 1)),
    )
    resident_warps = spec.sm_count * blocks_per_sm * warps_per_block
    total_warps = wd.block_count * warps_per_block
    need_warps = spec.sm_count * GPU_NEED_WARPS_PER_SM
    occupancy = min(1.0, min(resident_warps, total_warps) / need_warps)
    return {"warp_eff": warp_eff, "occupancy": occupancy}


def _cpu_utilisation(
    res: MachineResources, wd: WorkDivMembers, parallel_scope: str
) -> float:
    """Fraction of the machine's cores a back-end's concurrency covers."""
    workers = {
        "none": 1,
        "blocks": wd.block_count,
        "threads": wd.block_thread_count,
        "both": wd.block_count * wd.block_thread_count,
    }.get(parallel_scope)
    if workers is None:
        raise ModelError(f"unknown parallel scope {parallel_scope!r}")
    return min(1.0, workers / res.cores)


def predict_time(
    spec: HardwareSpec,
    backend_kind: str,
    wd: WorkDivMembers,
    chars: KernelCharacteristics,
    parallel_scope: str = "both",
) -> PredictedTime:
    """Predict the execution time of one launch (see module docstring)."""
    res = machine_resources(spec, backend_kind)
    cache = CacheModel(spec)
    factors: Dict[str, float] = {}

    # -- compute ceiling -------------------------------------------------
    if backend_kind == "gpu":
        g = _gpu_efficiency(spec, wd)
        factors.update(g)
        util = g["occupancy"]
        compute_eff = g["warp_eff"] * g["occupancy"] * chars.issue_efficiency
    else:
        util = _cpu_utilisation(res, wd, parallel_scope)
        factors["utilisation"] = util
        if chars.uses_vector_math_library:
            # Hand-vectorised library math keeps the lanes and the FMAs.
            simd_eff = 1.0 if chars.vector_friendly else 1.0 / spec.simd_dp_lanes
            fma_eff = 1.0
        else:
            simd_eff = (
                CPU_AUTOVEC_EFFICIENCY
                if (
                    chars.vector_friendly
                    and wd.thread_elem_count >= spec.simd_dp_lanes
                )
                else 1.0 / spec.simd_dp_lanes
            )
            fma_eff = (
                0.5
                if (spec.peak_assumes_fma and not CPU_COMPILER_CONTRACTS_FMA)
                else 1.0
            )
        factors["simd_eff"] = simd_eff
        factors["fma_eff"] = fma_eff
        compute_eff = util * simd_eff * fma_eff * chars.issue_efficiency
    factors["issue_eff"] = chars.issue_efficiency
    factors["compute_eff"] = compute_eff
    compute_s = chars.flops / (res.peak_gflops * 1e9 * max(compute_eff, 1e-12))

    # -- on-chip ceiling ----------------------------------------------------
    serving = cache.serving_level(chars.working_set_bytes)
    on_chip_s = 0.0
    if chars.on_chip_read_bytes > 0 and serving is not None:
        level_bw = serving.bandwidth_gbs * 1e9 * max(util, 1e-12)
        on_chip_s = chars.on_chip_read_bytes / level_bw
        factors["on_chip_level_bw_gbs"] = serving.bandwidth_gbs * util
    factors["serving_level"] = (
        0.0 if serving is None else float(serving.size_bytes)
    )

    # -- DRAM ceiling ----------------------------------------------------------
    pattern = device_effective_pattern(chars.thread_access_pattern, backend_kind)
    if serving is None:
        # Reuse assumption failed: working set spills past every cache.
        read = (
            chars.spill_read_bytes
            if chars.spill_read_bytes is not None
            else chars.global_read_bytes
        )
        dram_bytes = read + chars.global_write_bytes
    else:
        dram_bytes = chars.total_bytes
    est = cache.bandwidth(1 << 62, pattern)  # force the global level
    pattern_eff = est.efficiency
    factors["dram_pattern_eff"] = pattern_eff
    dram_s = dram_bytes / (res.dram_bandwidth_gbs * 1e9 * pattern_eff)

    # -- additive terms -----------------------------------------------------------
    if backend_kind == "gpu":
        sync_s = chars.block_sync_generations * GPU_BARRIER_S
    else:
        per_barrier = (
            CPU_BARRIER_BASE_S
            + CPU_BARRIER_PER_THREAD_S * wd.block_thread_count
        )
        # Barriers of concurrently running blocks overlap.
        concurrency = max(
            1.0, util * res.cores / max(wd.block_thread_count, 1)
        ) if parallel_scope in ("blocks", "both") else 1.0
        sync_s = chars.block_sync_generations * per_barrier / concurrency

    # The abstraction-layer costs are nvcc residuals (see
    # KernelCharacteristics.abstraction_overhead_fraction); gcc elides
    # the same template machinery completely, so CPU back-ends pay
    # neither the fraction nor the extra API calls (paper Sec. 4.2.1:
    # OpenMP relative performance 100 %).
    if backend_kind == "gpu":
        overhead_fraction = chars.abstraction_overhead_fraction
        api_calls = chars.launches + chars.extra_api_calls
    else:
        overhead_fraction = 0.0
        api_calls = chars.launches
    overhead_s = api_calls * LAUNCH_OVERHEAD_S[backend_kind]

    seconds = max(compute_s, on_chip_s, dram_s) * (
        1.0 + overhead_fraction
    ) + sync_s + overhead_s
    return PredictedTime(
        seconds=seconds,
        compute_seconds=compute_s,
        on_chip_seconds=on_chip_s,
        dram_seconds=dram_s,
        sync_seconds=sync_s,
        overhead_seconds=overhead_s,
        flops=chars.flops,
        peak_gflops=res.peak_gflops,
        factors=factors,
    )


def predict_launch_seconds(
    kernel, acc_type, device, wd: WorkDivMembers, args=()
):
    """Predicted seconds for one launch of ``kernel`` under ``wd``, or
    ``None`` when the model has nothing to say.

    The hint interface of the work-division autotuner
    (:mod:`repro.tuning`): self-describing kernels (those implementing
    ``characteristics(work_div, *args)``) get a roofline prediction the
    search strategies use to prune and order candidates; anything that
    goes wrong — no ``characteristics`` method, the kernel declining a
    division, a model error — yields ``None`` rather than an exception,
    because a missing hint must never abort a tuning run.
    """
    describe = getattr(kernel, "characteristics", None)
    if describe is None:
        return None
    try:
        chars = describe(wd, *args)
        if chars is None:
            return None
        predicted = predict_time(
            device.spec,
            acc_type.kind,
            wd,
            chars,
            parallel_scope=getattr(acc_type, "parallel_scope", "none"),
        )
    except Exception:  # noqa: BLE001 - a kernel-authored characteristics() may raise anything; no prediction
        return None
    return predicted.seconds
