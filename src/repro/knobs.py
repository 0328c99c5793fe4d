"""The one configuration surface: every ``REPRO_*`` environment knob.

A declarative table of the variables the library honours, and the only
code under ``src/repro/`` that touches the environment.  Each knob has
a typed parser, a default, one line of documentation and a policy for
malformed values: **strict** knobs raise :class:`KnobError` naming the
variable; the others log one warning and use the default (an ops
listener or a sampling rate must not take the process down).

:func:`get` reads the **live** environment on every call — nothing is
snapshotted, so ``monkeypatch.setenv`` and :func:`pinned` apply at
once; only the *parse* of a raw value is memoised, on that value.  :func:`effective` is "the effective configuration of this
process" (embedded in ``/healthz``, the serve ``stats`` op, flight
dumps and the ``REPRO_TELEMETRY`` exit report);
``python -m repro.knobs [--check README.md]`` generates and verifies
README's table.  Blank counts as unset, and all booleans share one
rule: ``0/false/no/off`` = off, ``1/true/yes/on`` = on.
"""

from __future__ import annotations

import logging
import os
import sys
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Mapping, NamedTuple, Optional

__all__ = [
    "Knob", "KnobError", "KNOBS", "PREFIX", "get", "parse", "effective",
    "describe", "pinned", "export_env", "import_env", "readme_table", "main",
]

#: Every variable of the library starts with this.
PREFIX = "REPRO_"

_log = logging.getLogger("repro.knobs")


class KnobError(ValueError):
    """A ``REPRO_*`` variable holds a value its knob cannot parse."""


class Knob(NamedTuple):
    """One declared environment variable."""

    env: str
    #: Non-blank raw string -> value; ``ValueError(reason)`` if malformed.
    parse: Callable[[str], object]
    default: object
    #: One line of markdown for README's table.
    doc: str
    #: Malformed value: raise (True) or warn once and use the default.
    strict: bool = True


_BOOLS = {"0": False, "false": False, "no": False, "off": False,
          "1": True, "true": True, "yes": True, "on": True}


def _bool(raw: str) -> bool:
    try:
        return _BOOLS[raw.strip().lower()]
    except KeyError:
        raise ValueError("is not a boolean (1/true/yes/on, 0/false/no/off)") from None


def _int(minimum: Optional[int] = None) -> Callable[[str], int]:
    """Integer parser; values below ``minimum`` clamp up to it."""

    def parse_int(raw: str) -> int:
        try:
            value = int(raw)
        except ValueError:
            raise ValueError("is not an integer") from None
        return value if minimum is None else max(minimum, value)

    return parse_int


def _choice(**aliases: str) -> Callable[[str], str]:
    """``canonical="alias alias ..."`` -> case-insensitive parser."""
    table = {a: name for name, names in aliases.items() for a in names.split()}

    def parse_choice(raw: str) -> str:
        try:
            return table[raw.strip().lower()]
        except KeyError:
            raise ValueError(f"unknown; accepted: {sorted(table)}") from None

    return parse_choice


def _host_port(raw: str):
    """``host:port`` -> ``(host, port)``; an empty host is loopback."""
    host, sep, port = raw.strip().rpartition(":")
    if not sep:
        raise ValueError("is not host:port")
    try:
        port_no = int(port)
    except ValueError:
        raise ValueError(f"port is not an integer: {port!r}") from None
    if not 0 <= port_no <= 65535:
        raise ValueError(f"port out of range: {port_no}")
    return (host or "127.0.0.1", port_no)


def _weights(raw: str) -> Dict[str, float]:
    """``"gold:4,free:1"`` -> ``{"gold": 4.0, "free": 1.0}``."""
    weights: Dict[str, float] = {}
    for part in filter(None, (p.strip() for p in raw.split(","))):
        name, sep, value = part.partition(":")
        name = name.strip()
        if not sep or not name:
            raise ValueError(f"entry {part!r} is not 'name:weight'")
        try:
            weights[name] = float(value)
        except ValueError:
            raise ValueError(f"weight for {name!r} is not a number: {value!r}") from None
        if weights[name] <= 0:
            raise ValueError(f"weight for {name!r} must be positive, got {value}")
    return weights


#: env name -> :class:`Knob`, in README order.
KNOBS: Dict[str, Knob] = {}


def _declare(env, parse, default, doc, strict=True) -> str:
    KNOBS[env] = Knob(env, parse, default, doc, strict)
    return env


TUNING_CACHE = _declare(
    "REPRO_TUNING_CACHE", str, None,
    "path of the autotuner's persistent result cache (default `./.repro-tuning-cache.json`); "
    "share it to reuse tuned work divisions, point it somewhere throwaway to isolate runs.")
MAX_BLOCK_WORKERS = _declare(
    "REPRO_MAX_BLOCK_WORKERS", _int(minimum=1), None,
    "worker cap of the pooled block schedulers and `AccDevProps.max_block_workers`; "
    "authoritative when set (default: host CPU count, 2 to 16).")
SCHEDULER = _declare(
    "REPRO_SCHEDULER",
    _choice(sequential="sequential", pooled="pooled", compiled="compiled compile"),
    None,
    "remaps block dispatch on pooled back-ends: `sequential`, `pooled` or `compiled` "
    "(trace-vectorized replay, `repro.compile`); launches `compiled` cannot serve fall back to "
    "the thread pool with a logged reason. Unset, the back-end default tiers: a proven plan "
    "runs its compiled replay wherever the host clock measured it faster; `compiled` is that "
    "tier forced, `pooled` pins the interpreter.")
COMPILE_CROSSCHECK = _declare(
    "REPRO_COMPILE_CROSSCHECK", _bool, False,
    "boolean; every `compiled` launch also runs interpreted and must match **bit for bit** "
    "(`CompileCrossCheckError`) — what `python -m repro.sanitize crosscheck` sweeps.")
GRAPH_REPLAY = _declare(
    "REPRO_GRAPH_REPLAY", _bool, True,
    "boolean, default on; `0` forces `repro.graph` graphs onto the queued path (full "
    "queue/event semantics) even on a single device.")
SANITIZE = _declare(
    "REPRO_SANITIZE", _bool, False,
    "boolean; routes every launch through the dynamic sanitizer (`repro.sanitize`: data races, "
    "out-of-bounds, barrier divergence); findings are summarised at interpreter exit.")
SANITIZE_SEED = _declare(
    "REPRO_SANITIZE_SEED", _int(), None,
    "integer seed of the sanitizer's fuzzed cooperative schedule; replays an interleaving.")
UNGUARDED_KERNEL_ARRAYS = _declare(
    "REPRO_UNGUARDED_KERNEL_ARRAYS", _bool, False,
    "boolean; disables the kernel-side negative-index guard on every array, restoring numpy "
    "wrap-around (arrays a compile trace proves only sliced run unguarded from a plan's "
    "second launch on regardless).")
TELEMETRY = _declare(
    "REPRO_TELEMETRY", _bool, False,
    "boolean; collects telemetry for the whole process (`repro.telemetry`) and prints the "
    "report and the effective configuration at exit; off, a launch pays one falsy check.")
TELEMETRY_EXPORT = _declare(
    "REPRO_TELEMETRY_EXPORT", str, None,
    "path written at exit when telemetry is on: `*.json` = Chrome `trace_event` file "
    "(Perfetto), anything else = Prometheus text.")
TRACEPARENT = _declare(
    "REPRO_TRACEPARENT", str, None,
    "W3C `traceparent` (`00-<32 hex>-<16 hex>-01`) seeding this process's distributed-trace "
    "context; malformed values degrade to untraced, never error.")
TELEMETRY_HTTP = _declare(
    "REPRO_TELEMETRY_HTTP", _host_port, None,
    "`host:port` of the serving gateway's ops listener: `/metrics`, `/healthz` "
    "(readiness + this table's effective values), `/traces` (the last traced or "
    "failed requests, from the span log; the launch path stays unobserved); port `0` is ephemeral; a malformed value "
    "warns and leaves it off.", strict=False)
FLIGHT_RECORDER_DIR = _declare(
    "REPRO_FLIGHT_RECORDER_DIR", str, None,
    "directory arming the crash flight recorder: every process dumps the span log's last "
    "256 records as `flight-<pid>-<seq>.json` on kernel crashes, sanitizer findings and "
    "poisoned queues.")
SERVE_HOST = _declare(
    "REPRO_SERVE_HOST", str, "127.0.0.1",
    "bind host of `python -m repro.serve` (default `127.0.0.1`); in-process gateways ignore it.")
SERVE_PORT = _declare(
    "REPRO_SERVE_PORT", _int(), 7411,
    "bind port of `python -m repro.serve` (default `7411`).")
SERVE_TENANT_WEIGHTS = _declare(
    "REPRO_SERVE_TENANT_WEIGHTS", _weights, None,
    "fair-share admission weights, e.g. `gold:4,free:1`; unlisted tenants weigh `1`.")
BENCH_REPORT_DIR = _declare(
    "REPRO_BENCH_REPORT_DIR", str, None,
    "directory for the benchmarks' tables and `BENCH_<name>.json` (default `benchmarks/out/`).")

_UNSET = object()
_warned: set = set()


def parse(env: str, raw: str, error: type = KnobError):
    """``raw`` as knob ``env`` reads it; raises ``error`` (naming the
    variable) when malformed, whatever the knob's own policy."""
    try:
        return KNOBS[env].parse(raw)
    except ValueError as exc:
        raise error(f"{env}={raw!r} {exc}") from None


#: CPython keeps the environment as a dict under encoded names.  Read
#: with a pre-encoded name, an unset variable — the usual case on the
#: launch path, which reads several knobs per launch — is one dict miss
#: instead of the two exceptions ``os.environ.get`` raises and swallows.
#: The dict is the live one: ``os.environ[...] = ...``, ``monkeypatch``
#: and :func:`pinned` all write through it.  Values are immutable, so
#: the same value object means the same string.
_ENV_DATA = getattr(os.environ, "_data", None)
_ENCODED: Dict[str, object] = {}

#: env -> (the raw value object last read, its parse).  ``_DEFAULT``
#: stands for "use the default": unset, blank, or malformed under a
#: lenient knob.  A strict knob's malformed value is never memoised.
_PARSED: Dict[str, tuple] = {}
_DEFAULT = object()


def _raw(env: str):
    """The variable's value object in the live environment (encoded on
    CPython), or ``None``."""
    if _ENV_DATA is None:  # not CPython's os.environ
        return os.environ.get(env)
    key = _ENCODED.get(env)
    if key is None:
        key = _ENCODED[env] = os.environ.encodekey(env)
    return _ENV_DATA.get(key)


def _parse_raw(env: str, raw, error: type):
    if raw is None:
        return _DEFAULT
    text = raw if _ENV_DATA is None else os.environ.decodevalue(raw)
    if not text.strip():
        return _DEFAULT
    try:
        return parse(env, text, error)
    except error as exc:
        if KNOBS[env].strict:
            raise
        if (env, text) not in _warned:
            _warned.add((env, text))
            _log.warning("%s; using the default", exc)
        return _DEFAULT


def get(env: str, default=_UNSET, error: type = KnobError):
    """The current value of knob ``env`` from the live environment.

    Unset or blank gives ``default`` when passed, else the declared
    default; a malformed value raises ``error`` (strict knobs, on every
    read) or warns once and gives the default.

    The environment is read on every call; the parse is memoised on the
    raw value object, so a hot path that reads a knob per launch pays a
    dict lookup, and a value written since the last read is parsed
    again.  A memoised value is shared between callers: treat it as
    read-only.
    """
    raw = _raw(env)
    memo = _PARSED.get(env)
    if memo is None or memo[0] is not raw:
        memo = _PARSED[env] = (raw, _parse_raw(env, raw, error))
    value = memo[1]
    if value is _DEFAULT:
        return KNOBS[env].default if default is _UNSET else default
    return value


def effective() -> Dict[str, object]:
    """Every knob's value, raw string and source (``default``/``env``)
    plus the ``REPRO_*`` names set that no knob declares.  Never raises:
    a malformed value shows as ``error`` next to the default."""
    knobs: Dict[str, Dict[str, object]] = {}
    for env, knob in KNOBS.items():
        raw = os.environ.get(env)
        knobs[env] = entry = {"value": knob.default, "raw": raw, "source": "default"}
        if raw is not None and raw.strip():
            entry["source"] = "env"
            try:
                entry["value"] = knob.parse(raw)
            except ValueError as exc:
                entry["error"] = str(exc)
    unrecognised = sorted(n for n in export_env() if n not in KNOBS)
    return {"knobs": knobs, "unrecognised": unrecognised}


def describe() -> str:
    """:func:`effective` as text: one line per knob set from the
    environment, then the unrecognised names."""
    config = effective()
    chosen = {e: k for e, k in config["knobs"].items() if k["source"] == "env"}
    lines = [f"Effective configuration: {len(chosen)} of {len(KNOBS)} "
             f"{PREFIX}* knobs set from the environment"]
    lines += [f"  {env}={k['raw']} -> {k.get('error') or repr(k['value'])}"
              for env, k in chosen.items()]
    if config["unrecognised"]:
        lines.append("  unrecognised: " + ", ".join(config["unrecognised"]))
    return "\n".join(lines)


def export_env() -> Dict[str, str]:
    """The ``REPRO_*`` slice of the environment."""
    return {k: v for k, v in os.environ.items() if k.startswith(PREFIX)}


def import_env(values: Mapping[str, Optional[object]]) -> None:
    """Write ``values`` into the environment (``None`` = unset)."""
    for env, value in values.items():
        if value is None:
            os.environ.pop(env, None)
        else:
            os.environ[env] = str(value)


@contextmanager
def pinned(**values) -> Iterator[None]:
    """Set knobs (``None`` = unset) for a ``with`` block and restore the
    previous values on exit, also on error; nests.

    This writes the process environment, so launches on *other* threads
    see the pinned values too: it is for whole-process CLI sweeps and
    tests, never for passing a parameter to one call.
    """
    undeclared = sorted(set(values) - set(KNOBS))
    if undeclared:
        raise KeyError(f"undeclared knobs: {undeclared}")
    saved = {env: os.environ.get(env) for env in values}
    import_env(values)
    try:
        yield
    finally:
        import_env(saved)


TABLE_BEGIN = "<!-- knobs:begin (python -m repro.knobs) -->"
TABLE_END = "<!-- knobs:end -->"


def readme_table() -> str:
    """README's environment table, generated from :data:`KNOBS`."""
    rows = ["| Variable | Effect |", "|---|---|"]
    return "\n".join(rows + [f"| `{k.env}` | {k.doc} |" for k in KNOBS.values()])


def main(argv: Optional[List[str]] = None) -> int:
    """``python -m repro.knobs`` prints the table; ``--check FILE``
    exits 1 when the table between FILE's markers has drifted."""
    import argparse

    ap = argparse.ArgumentParser(prog="python -m repro.knobs")
    ap.add_argument("--check", metavar="FILE")
    path = ap.parse_args(argv).check
    if path is None:
        print(readme_table())
        return 0
    with open(path) as fh:
        _, begin, rest = fh.read().partition(TABLE_BEGIN)
    current, end, _ = rest.partition(TABLE_END)
    if begin and end and current.strip() == readme_table():
        return 0
    print(f"{path}: environment table missing or different from repro.knobs; "
          "regenerate it with `python -m repro.knobs`", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
