"""Counters, gauges and histograms with snapshot export.

A :class:`MetricsRegistry` is a flat name → instrument map owned by a
:class:`~repro.obs.trace.Tracer`. Producers look an instrument up once
(one dict access) and then update it with plain attribute arithmetic, so
a hot loop can keep a reference and pay no per-update lookup:

    lp_solves = tracer.metrics.counter("lp_solves")
    ...
    lp_solves.inc()          # inside the loop

Instruments are intentionally not thread-safe per-update (CPython makes
the single ``+=`` effectively atomic and telemetry tolerates a lost
increment under contention); the registry itself is lock-protected.
"""

from __future__ import annotations

import math
import threading
from typing import Any, Dict, List, Union

Number = Union[int, float]


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "instance", "value")

    def __init__(self, name: str, instance: "str | None" = None) -> None:
        self.name = name
        self.instance = instance
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def snapshot(self) -> Dict[str, Any]:
        return {"kind": "counter", "value": self.value}


class Gauge:
    """A value that goes up and down (queue depth, open nodes, ...)."""

    __slots__ = ("name", "instance", "value")

    def __init__(self, name: str, instance: "str | None" = None) -> None:
        self.name = name
        self.instance = instance
        self.value: Number = 0

    def set(self, value: Number) -> None:
        self.value = value

    def inc(self, amount: Number = 1) -> None:
        self.value += amount

    def dec(self, amount: Number = 1) -> None:
        self.value -= amount

    def snapshot(self) -> Dict[str, Any]:
        return {"kind": "gauge", "value": self.value}


class Histogram:
    """Streaming summary of an observed distribution.

    Keeps count/sum/min/max plus fixed power-of-two bucket counts
    (``le`` upper bounds), so the export is bounded regardless of how
    many observations arrive.
    """

    __slots__ = ("name", "instance", "count", "total", "min", "max",
                 "buckets")

    #: Bucket upper bounds; one overflow bucket follows implicitly.
    BOUNDS = (0.001, 0.01, 0.1, 1.0, 10.0, 100.0)

    def __init__(self, name: str, instance: "str | None" = None) -> None:
        self.name = name
        self.instance = instance
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.buckets = [0] * (len(self.BOUNDS) + 1)

    def observe(self, value: Number) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        for i, bound in enumerate(self.BOUNDS):
            if value <= bound:
                self.buckets[i] += 1
                return
        self.buckets[-1] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def snapshot(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "kind": "histogram",
            "count": self.count,
            "sum": round(self.total, 9),
        }
        if self.count:
            out.update(min=self.min, max=self.max,
                       mean=round(self.mean, 9),
                       buckets=dict(zip(
                           [str(b) for b in self.BOUNDS] + ["inf"],
                           self.buckets)))
        return out


def metric_key(name: str, instance: "str | None" = None) -> str:
    """The registry key for an instrument (``name`` or ``name[inst]``)."""
    return name if instance is None else f"{name}[{instance}]"


def split_metric_key(key: str) -> "tuple[str, str | None]":
    """Invert :func:`metric_key`: ``name[inst]`` → ``(name, inst)``."""
    if key.endswith("]") and "[" in key:
        name, _, instance = key[:-1].partition("[")
        return name, instance
    return key, None


class MetricsRegistry:
    """Name-keyed instruments with typed lookup and snapshot export.

    Instruments optionally carry an ``instance`` — the component that
    owns them (``shard-0``, a store path, ...). Instances namespace the
    registry key, so two services sharing one process (and therefore
    one tracer registry) keep separate ``service_*`` gauges instead of
    overwriting each other; exports surface the instance as a label.
    Without ``instance`` everything behaves exactly as before.
    """

    def __init__(self) -> None:
        self._instruments: Dict[str, Any] = {}
        self._lock = threading.Lock()

    def _get(self, name: str, cls, instance: "str | None" = None):
        key = metric_key(name, instance)
        with self._lock:
            instrument = self._instruments.get(key)
            if instrument is None:
                instrument = self._instruments[key] = cls(name, instance)
        if not isinstance(instrument, cls):
            raise TypeError(
                f"metric {key!r} is a {type(instrument).__name__}, "
                f"not a {cls.__name__}")
        return instrument

    def counter(self, name: str, instance: "str | None" = None) -> Counter:
        return self._get(name, Counter, instance)

    def gauge(self, name: str, instance: "str | None" = None) -> Gauge:
        return self._get(name, Gauge, instance)

    def histogram(self, name: str,
                  instance: "str | None" = None) -> Histogram:
        return self._get(name, Histogram, instance)

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """``key -> {kind, value/count/...}`` for every instrument.

        Keys are plain names for un-instanced instruments and
        ``name[instance]`` otherwise; instanced snapshots also carry
        the instance inline for label-aware consumers.
        """
        with self._lock:
            instruments = list(self._instruments.items())
        out: Dict[str, Dict[str, Any]] = {}
        for key, inst in sorted(instruments):
            snap = inst.snapshot()
            if inst.instance is not None:
                snap["instance"] = inst.instance
            out[key] = snap
        return out

    def records(self) -> List[Dict[str, Any]]:
        """The snapshot as ``metric`` records for the event stream."""
        return snapshot_records(self.snapshot())

    def __len__(self) -> int:
        with self._lock:
            return len(self._instruments)


def snapshot_records(snapshot: Dict[str, Dict[str, Any]],
                     ) -> List[Dict[str, Any]]:
    """A :meth:`MetricsRegistry.snapshot` as ``metric`` records, one
    per instrument, in snapshot order."""
    return [{"type": "metric",
             "name": split_metric_key(key)[0] if "instance" in snap else key,
             **snap}
            for key, snap in snapshot.items()]


__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry",
           "metric_key", "snapshot_records", "split_metric_key"]
