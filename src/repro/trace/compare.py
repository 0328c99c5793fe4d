"""Instruction-stream comparison (the paper's Fig. 4 check).

The paper's finding: the Alpaka and the native CUDA DAXPY PTX are
*"identical up to ... different internal variable names and the use of
non coherent texture cache once"*.  The comparator reproduces that
statement mechanically:

* register names are canonicalised (renumbered per class in order of
  first appearance), removing the "internal variable names" difference;
* labels are canonicalised the same way;
* cache-modifier-only opcode differences (``ld.global.f64`` vs
  ``ld.global.nc.f64``) are, optionally, downgraded from differences to
  *notes* — they change the cache path, not the computation.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from .ir import Instruction, IRBuilder

__all__ = ["normalize", "compare_streams", "ComparisonResult"]

#: Every register class of :mod:`repro.trace.ir`; ``fd`` before ``f``
#: and ``rd`` before ``r`` so the longer prefix wins.
_REG_RE = re.compile(r"%(p|rd|fd|f|r)(\d+)")
_LABEL_RE = re.compile(r"^BB\d+$")

#: Opcode pairs that differ only in a cache modifier.
_CACHE_MODIFIER_PAIRS = {
    frozenset({"ld.global.f64", "ld.global.nc.f64"}),
    frozenset({"ld.global.f32", "ld.global.nc.f32"}),
}


def _canon_operand(
    operand: str, reg_map: Dict[str, str], counters: Dict[str, int],
    label_map: Dict[str, str],
) -> str:
    m = _REG_RE.fullmatch(operand)
    if m:
        if operand not in reg_map:
            cls = m.group(1)
            counters[cls] += 1
            reg_map[operand] = f"%{cls}{counters[cls]}"
        return reg_map[operand]
    if _LABEL_RE.fullmatch(operand):
        if operand not in label_map:
            label_map[operand] = f"L{len(label_map) + 1}"
        return label_map[operand]
    return operand


def normalize(builder: IRBuilder) -> List[Instruction]:
    """Canonicalise register and label names of a stream."""
    reg_map: Dict[str, str] = {}
    counters = {"r": 0, "rd": 0, "f": 0, "fd": 0, "p": 0}
    label_map: Dict[str, str] = {}
    out: List[Instruction] = []
    for ins in builder.instructions:
        dst = (
            _canon_operand(ins.dst, reg_map, counters, label_map)
            if ins.dst
            else None
        )
        srcs = tuple(
            _canon_operand(s, reg_map, counters, label_map) for s in ins.srcs
        )
        pred = (
            _canon_operand(ins.predicate, reg_map, counters, label_map)
            if ins.predicate
            else None
        )
        out.append(Instruction(ins.op, dst, srcs, pred, ""))
    return out


@dataclass
class ComparisonResult:
    """Outcome of comparing two normalised streams."""

    identical: bool
    #: Hard differences: (position, left rendering, right rendering).
    differences: List[Tuple[int, str, str]] = field(default_factory=list)
    #: Soft differences (cache modifiers) reported like the paper does.
    notes: List[str] = field(default_factory=list)

    @property
    def identical_up_to_cache_modifiers(self) -> bool:
        return not self.differences

    def summary(self) -> str:
        if self.identical:
            return "streams identical"
        if not self.differences:
            return (
                "streams identical up to cache modifiers: "
                + "; ".join(self.notes)
            )
        return f"{len(self.differences)} difference(s): " + "; ".join(
            f"@{pos}: {a!r} vs {b!r}" for pos, a, b in self.differences[:5]
        )


def _is_cache_modifier_pair(op_a: str, op_b: str) -> bool:
    return frozenset({op_a, op_b}) in _CACHE_MODIFIER_PAIRS


def compare_streams(
    a: IRBuilder,
    b: IRBuilder,
    *,
    allow_cache_modifiers: bool = True,
) -> ComparisonResult:
    """Compare two instruction streams after normalisation."""
    na, nb = normalize(a), normalize(b)
    diffs: List[Tuple[int, str, str]] = []
    notes: List[str] = []
    for pos, (ia, ib) in enumerate(zip(na, nb)):
        same_shape = (
            ia.dst == ib.dst and ia.srcs == ib.srcs and ia.predicate == ib.predicate
        )
        if ia.op == ib.op and same_shape:
            continue
        if (
            allow_cache_modifiers
            and same_shape
            and _is_cache_modifier_pair(ia.op, ib.op)
        ):
            notes.append(
                f"@{pos}: cache modifier only ({ia.op} vs {ib.op})"
            )
            continue
        diffs.append((pos, ia.to_text(), ib.to_text()))
    if len(na) != len(nb):
        longer, shorter = (na, nb) if len(na) > len(nb) else (nb, na)
        for pos in range(len(shorter), len(longer)):
            extra = longer[pos].to_text()
            if len(na) > len(nb):
                diffs.append((pos, extra, "<absent>"))
            else:
                diffs.append((pos, "<absent>", extra))
    return ComparisonResult(
        identical=not diffs and not notes,
        differences=diffs,
        notes=notes,
    )
