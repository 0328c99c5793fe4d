"""Compiled-vs-interpreted cross-check sweep.

The sanitizer's dynamic checks guard the *interpreted* execution; the
trace-vectorized replay (``repro.compile``) is a second executor whose
correctness contract is bit-identity with interpretation.  This sweep
closes the loop: it re-runs the canned kernel sweep
(:data:`~repro.sanitize.sweep.KERNEL_SWEEP`) on a pooled back-end with
``REPRO_SCHEDULER=compiled`` and ``REPRO_COMPILE_CROSSCHECK=1``, so

* every kernel family the vectorizer can compile executes **twice** —
  once as fused array ops, once interpreted — and any byte of
  divergence raises :class:`~repro.core.errors.CompileCrossCheckError`;
* every family it cannot compile must fall back through a *classified*
  reason (barrier, atomics, divergent-control-flow, ...) — an
  unclassified crash is a vectorizer bug, not a fallback.

The sweep is the compiled engine's false-miscompile regression, the
exact analogue of ``sweep_kernels`` being the sanitizer's
false-positive regression.  CI runs it via
``python -m repro.sanitize crosscheck``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

__all__ = [
    "CrossCheckReport",
    "sweep_crosscheck",
    "DEFAULT_CROSSCHECK_BACKENDS",
]

#: Back-ends the cross-check sweep exercises: the pooled CPU back-end
#: is where the ``compiled`` schedule is reachable (sequential
#: back-ends never remap to it).
DEFAULT_CROSSCHECK_BACKENDS = ("AccCpuOmp2Blocks",)


@dataclass
class CrossCheckReport:
    """Outcome of one cross-check sweep."""

    #: (kernel-family, backend) pairs that ran.
    ran: List[Tuple[str, str]] = field(default_factory=list)
    #: Compiled launches that were replayed twice and compared.
    crosschecks: int = 0
    #: Grid replays executed through the vectorized path.
    compiled_launches: int = 0
    #: Fallback counts by classified reason slug.
    fallbacks: Dict[str, int] = field(default_factory=dict)
    #: ``kernel-family@backend: message`` for every mismatch/crash.
    failures: List[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.failures

    def render(self) -> str:
        lines = [
            "compiled-vs-interpreted cross-check sweep",
            f"  families run      : {len(self.ran)}",
            f"  compiled launches : {self.compiled_launches}",
            f"  crosschecks       : {self.crosschecks}",
        ]
        if self.fallbacks:
            from ..compile import FALLBACK_REASONS

            lines.append("  fallbacks (classified, interpreted instead):")
            # The vectorizer's closed set first, in its order; then the
            # scheduler's own reasons (sanitizer, custom-block-subset).
            order = sorted(FALLBACK_REASONS)
            order += sorted(set(self.fallbacks) - FALLBACK_REASONS)
            for reason in order:
                if reason in self.fallbacks:
                    lines.append(f"    {reason}: {self.fallbacks[reason]}")
        for failure in self.failures:
            lines.append(f"  MISMATCH {failure}")
        lines.append("  " + ("CLEAN" if self.clean else "FAILED"))
        return "\n".join(lines)


def sweep_crosscheck(
    backends: Optional[Iterable[str]] = None,
    *,
    only: Optional[Iterable[str]] = None,
) -> CrossCheckReport:
    """Run every shipped kernel family under
    ``REPRO_SCHEDULER=compiled`` with the cross-check active.

    Returns the combined report; :attr:`CrossCheckReport.clean` must be
    true — a mismatch means the vectorizer miscompiled a kernel, an
    unclassified crash means a fallback path is missing.
    """
    from .. import knobs
    from ..acc.registry import accelerator
    from ..compile import compile_stats, reset_compile_stats
    from ..core.errors import CompileCrossCheckError
    from ..dev.manager import get_dev_by_idx
    from ..queue.queue import QueueBlocking
    from ..runtime import clear_plan_cache
    from .sweep import KERNEL_SWEEP

    names = set(only) if only is not None else None
    report = CrossCheckReport()
    with knobs.pinned(
        **{knobs.SCHEDULER: "compiled", knobs.COMPILE_CROSSCHECK: 1}
    ):
        clear_plan_cache()
        reset_compile_stats()
        for backend in backends or DEFAULT_CROSSCHECK_BACKENDS:
            acc = accelerator(backend)
            device = get_dev_by_idx(acc, 0)
            queue = QueueBlocking(device)
            for kernel_name, fn in KERNEL_SWEEP:
                if names is not None and kernel_name not in names:
                    continue
                try:
                    fn(acc, device, queue)
                except CompileCrossCheckError as exc:
                    report.failures.append(
                        f"{kernel_name}@{backend}: {exc}"
                    )
                except Exception as exc:  # noqa: BLE001 - an unclassified crash is a vectorizer bug: reported, not raised
                    report.failures.append(
                        f"{kernel_name}@{backend}: "
                        f"unclassified {type(exc).__name__}: {exc}"
                    )
                else:
                    report.ran.append((kernel_name, backend))
        stats = compile_stats()
    report.crosschecks = int(stats["crosschecks"])
    report.compiled_launches = int(stats["compiled_launches"])
    report.fallbacks = dict(stats["fallbacks"])
    clear_plan_cache()
    return report
