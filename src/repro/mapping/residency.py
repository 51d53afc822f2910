"""Resident-weight accounting for the request-serving layer.

When a platform serves a stream of requests, each model's weights are
fetched onto the compute chiplets **once** and stay resident; only
activations stream per request.  :class:`WeightResidency` implements
that contract on top of any fabric:

* the first request needing a layer issues the weight transfers and
  registers the completion barrier,
* every overlapping or later request for the same ``(model, layer)``
  waits on (or skips past) that same barrier instead of re-streaming,
* resident bits are accounted per model against an optional capacity
  budget; when the budget would overflow, the least-recently-used
  *other* model is evicted (its next request re-fetches).

The store is deliberately simulation-native: eviction only forgets the
memoised barrier, so requests already waiting on an in-flight fetch are
unaffected.

:class:`KVCacheResidency` is the second residency class, for
autoregressive serving: each admitted sequence reserves the KV-cache
bits its full generation will need from the **same** capacity pool the
weights use.  KV reservations evict weights under pressure (weights can
always be re-fetched; a sequence's KV cannot), are refused when they
do not fit next to other live sequences, and are released when the
sequence completes.
"""

from __future__ import annotations

from ..errors import AdmissionError, ConfigurationError
from ..interposer.base import InterposerFabric
from ..sim.core import Environment, Event

from .mapper import LayerMapping


def fetch_layer_weights(fabric: InterposerFabric,
                        layer_mapping: LayerMapping) -> Event:
    """Stream one layer's weights to its chiplets; the returned barrier
    fires once every allocation's transfer has landed."""
    return fabric.env.all_of([
        fabric.read_weights(alloc.chiplet_id, alloc.weight_bits)
        for alloc in layer_mapping.allocations
        if alloc.weight_bits > 0
    ])


class WeightResidency:
    """Per-model resident-weight store shared by in-flight requests."""

    def __init__(self, env: Environment,
                 capacity_bits: float | None = None):
        if capacity_bits is not None and capacity_bits <= 0:
            raise ConfigurationError(
                f"capacity must be positive, got {capacity_bits}"
            )
        self.env = env
        self.capacity_bits = capacity_bits
        self._barriers: dict[tuple[str, int], Event] = {}
        self._bits: dict[str, float] = {}
        self._lru: list[str] = []  # least-recently-used model first
        self.fetches_issued = 0
        self.fetch_hits = 0
        self.evictions = 0
        self.kv: "KVCacheResidency | None" = None
        # Telemetry hook (attached post-construction by the study
        # layer): fetch/evict/refusal decisions land as instants on a
        # shared ``residency`` track; ``None`` costs one comparison.
        self.obs_trace = None

    # -- accounting ---------------------------------------------------------------

    @property
    def resident_bits(self) -> float:
        """All weight bits currently resident, across models."""
        return sum(self._bits.values())

    def resident_bits_for(self, model_name: str) -> float:
        """Weight bits resident for one model."""
        return self._bits.get(model_name, 0.0)

    def _touch(self, model_name: str) -> None:
        if model_name in self._lru:
            self._lru.remove(model_name)
        self._lru.append(model_name)

    def evict(self, model_name: str) -> float:
        """Forget a model's residency; returns the bits freed.

        In-flight fetches keep completing (their barriers already fired
        or will fire); only the memoisation is dropped, so the next
        request for the model re-fetches.
        """
        freed = self._bits.pop(model_name, 0.0)
        if freed or any(key[0] == model_name for key in self._barriers):
            self.evictions += 1
            if self.obs_trace is not None:
                self.obs_trace.instant(
                    "residency", "weight-evict",
                    args={"model": model_name, "bits": freed},
                )
        self._barriers = {
            key: barrier for key, barrier in self._barriers.items()
            if key[0] != model_name
        }
        if model_name in self._lru:
            self._lru.remove(model_name)
        return freed

    def _occupied_bits(self) -> float:
        """Weight bits plus any live KV-cache reservations."""
        kv_bits = self.kv.reserved_bits if self.kv is not None else 0.0
        return self.resident_bits + kv_bits

    def _make_room(self, model_name: str, wanted_bits: float) -> None:
        """Evict LRU models (never the requester) until the new layer fits."""
        if self.capacity_bits is None:
            return
        while (
            self._occupied_bits() + wanted_bits > self.capacity_bits
            and any(name != model_name for name in self._lru)
        ):
            victim = next(
                name for name in self._lru if name != model_name
            )
            self.evict(victim)

    # -- the fetch-once contract ---------------------------------------------------

    def acquire(self, model_name: str, layer_mapping: LayerMapping,
                fabric: InterposerFabric) -> Event:
        """Barrier that fires when the layer's weights are resident.

        The first caller per ``(model, layer)`` issues the transfers;
        everyone else shares the same barrier (a hit on an already-fired
        barrier resumes immediately at the current time).
        """
        key = (model_name, layer_mapping.layer.index)
        barrier = self._barriers.get(key)
        if barrier is not None:
            self.fetch_hits += 1
            self._touch(model_name)
            return barrier

        layer_bits = float(sum(
            alloc.weight_bits for alloc in layer_mapping.allocations
        ))
        self._make_room(model_name, layer_bits)
        barrier = fetch_layer_weights(fabric, layer_mapping)
        self._barriers[key] = barrier
        self._bits[model_name] = (
            self._bits.get(model_name, 0.0) + layer_bits
        )
        self._touch(model_name)
        self.fetches_issued += 1
        if self.obs_trace is not None:
            self.obs_trace.instant(
                "residency", "weight-fetch",
                args={"model": model_name,
                      "layer": layer_mapping.layer.index,
                      "bits": layer_bits},
            )
        return barrier


class KVCacheResidency:
    """Per-sequence KV-cache reservations against the weight store's pool.

    An admitted sequence reserves the bits its whole generation will
    need (prompt + output tokens), which guarantees forward progress:
    once admitted, a sequence can always append its next token, so
    decode never deadlocks mid-generation.  The actually-written bits
    grow one token at a time (:meth:`grow`) for occupancy accounting.

    Admission evicts resident weights LRU-first to make room — weights
    re-fetch on the next request, cached KV state cannot — and is
    refused (returns ``False``) when live reservations still leave no
    room.  A sequence whose reservation exceeds the *total* capacity
    can never be admitted and raises :class:`AdmissionError` instead.
    """

    def __init__(self, weights: WeightResidency):
        if weights.kv is not None:
            raise ConfigurationError(
                "weight residency already has a KV-cache store attached"
            )
        self.weights = weights
        self.env = weights.env
        weights.kv = self
        self._reserved: dict[int, float] = {}
        self._written: dict[int, float] = {}
        self.admissions = 0
        self.refusals = 0
        self.releases = 0
        self.pressure_evictions = 0
        self.peak_reserved_bits = 0.0
        self._release_waiters: list[Event] = []

    # -- accounting ---------------------------------------------------------------

    @property
    def capacity_bits(self) -> float | None:
        return self.weights.capacity_bits

    @property
    def reserved_bits(self) -> float:
        """Bits reserved by live sequences (the admission commitment)."""
        return sum(self._reserved.values())

    @property
    def written_bits(self) -> float:
        """KV bits actually appended so far, across live sequences."""
        return sum(self._written.values())

    @property
    def live_sequences(self) -> int:
        return len(self._reserved)

    # -- admission ----------------------------------------------------------------

    def admit(self, request_id: int, total_tokens: int,
              bits_per_token: int) -> bool:
        """Reserve a sequence's full KV footprint; False when refused.

        Evicts LRU weights while the reservation does not fit.  Refusal
        means other live sequences hold the room — wait on
        :meth:`wait_release` and retry.
        """
        if total_tokens < 1:
            raise ConfigurationError(
                f"sequence needs >= 1 token, got {total_tokens}"
            )
        if bits_per_token <= 0:
            raise ConfigurationError(
                f"KV bits per token must be positive, got {bits_per_token}"
            )
        wanted = float(total_tokens * bits_per_token)
        capacity = self.weights.capacity_bits
        if capacity is not None:
            if wanted > capacity:
                raise AdmissionError(
                    f"sequence of {total_tokens} tokens needs "
                    f"{wanted:.0f} KV bits but total residency capacity "
                    f"is {capacity:.0f} bits"
                )
            while (
                self.weights.resident_bits + self.reserved_bits + wanted
                > capacity
                and self.weights._lru
            ):
                self.weights.evict(self.weights._lru[0])
                self.pressure_evictions += 1
            if self.reserved_bits + wanted > capacity:
                self.refusals += 1
                obs = self.weights.obs_trace
                if obs is not None:
                    obs.instant(
                        "residency", "kv-refusal",
                        args={"request": request_id, "bits": wanted},
                    )
                return False
        self._reserved[request_id] = wanted
        self._written[request_id] = 0.0
        self.admissions += 1
        self.peak_reserved_bits = max(
            self.peak_reserved_bits, self.reserved_bits
        )
        return True

    def grow(self, request_id: int, tokens: int,
             bits_per_token: int) -> None:
        """Account ``tokens`` newly appended KV rows for a live sequence."""
        if request_id not in self._reserved:
            raise ConfigurationError(
                f"request {request_id} has no KV reservation"
            )
        self._written[request_id] = min(
            self._reserved[request_id],
            self._written[request_id] + tokens * bits_per_token,
        )

    def release(self, request_id: int) -> float:
        """Free a completed sequence's reservation; returns bits freed."""
        freed = self._reserved.pop(request_id, 0.0)
        self._written.pop(request_id, None)
        if freed:
            self.releases += 1
            waiters, self._release_waiters = self._release_waiters, []
            for event in waiters:
                if not event.triggered:
                    event.succeed()
        return freed

    def wait_release(self) -> Event:
        """Event firing at the next reservation release (retry signal).

        Every waiter gets its own event and all of them fire on the
        next release, so refused admissions re-contend together."""
        event = self.env.event()
        self._release_waiters.append(event)
        return event
