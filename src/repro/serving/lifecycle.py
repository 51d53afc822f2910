"""Fault-tolerant request lifecycle: timeouts, retries and hedging.

The classic serving path submits a request once and waits forever; a
request caught on a failing node is simply lost time.  This module
wraps any submission target — a single-node
:class:`~repro.serving.scheduler.RequestScheduler` or a fleet-level
:class:`~repro.cluster.router.ClusterRouter` — in a **lifecycle
process** per logical request:

* **Timeout**: each *attempt* is bounded by ``timeout_s``; on expiry
  the attempt is cancelled (if still queued — in-flight work cannot be
  recalled) and the request moves to the retry path.
* **Retry**: up to ``max_retries`` re-submissions with exponential
  backoff ``retry_backoff_s * 2**(n-1)`` plus deterministic seeded
  jitter, all under a fleet-wide **retry budget** (a fraction of
  logical requests started) so a retry storm cannot amplify an outage.
* **Hedge**: after ``hedge_delay_s`` with the primary attempt still
  pending, a duplicate is submitted to a *different* node;
  first-completion-wins and the loser is cancelled.

Every attempt is backdated to the logical request's original arrival
(``arrival_s``), so deadlines and user-visible latency keep running
from first submission — retries never reset the SLO clock.  The driver
synthesizes one logical :class:`~repro.serving.metrics.RequestRecord`
per request (what the client experienced) and a
:class:`~repro.serving.metrics.ResilienceStats` ledger of attempts,
retries, hedge wins and wasted work.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .metrics import RequestRecord, ResilienceStats
from .scheduler import RequestHandle
from .window import ServingWindow

if TYPE_CHECKING:
    from ..studies.spec import ResilienceSpec

_JITTER_STREAM = 613
"""Seed-tuple tag for the retry-jitter RNG (decorrelates it from the
arrival and traffic-mix streams)."""


class LifecycleDriver(ServingWindow):
    """Runs a serving window with every request wrapped in a lifecycle.

    ``target`` is duck-typed: anything exposing ``submit(done=, model=,
    arrival_s=, ...)`` and ``cancel(handle)`` in one
    :class:`~repro.sim.core.Environment` works — the single-node
    scheduler and the cluster router both do.  The driver owns the
    injection processes and the drain barrier over *logical* requests
    (a request is open until it completes, is given up on, or exhausts
    its retries), replacing the target's own ``serve``.  ``policy`` is
    the study's resilience section; only its lifecycle knobs act here
    (the signal knobs act in the router).
    """

    def __init__(self, target, policy: ResilienceSpec, seed: int = 0):
        super().__init__(target.env)
        self.target = target
        self.policy = policy
        # The router routes across nodes (hedges need `exclude`); the
        # single-node scheduler has no node concept.
        self._is_router = hasattr(target, "routable_nodes")
        self.records: list[RequestRecord] = []
        self._rng = np.random.default_rng((seed, _JITTER_STREAM))
        self._counts = {
            "requests": 0, "attempts": 0, "retries": 0, "hedges": 0,
            "hedge_wins": 0, "timeouts": 0, "cancelled": 0,
            "gave_up": 0, "budget_denied": 0,
        }
        self._retry_causes: dict[str, int] = {}
        # Telemetry hook (attached post-construction by the study
        # layer): lifecycle decisions land as instants on a shared
        # ``lifecycle`` track; the attempts themselves are traced by the
        # target scheduler under their own request tracks.
        self.obs_trace = None
        self._next_logical_id = 0
        self._requests_open = 0

    # -- accounting ---------------------------------------------------------------

    @property
    def requests_injected(self) -> int:
        return self._counts["requests"]

    @property
    def requests_completed(self) -> int:
        return self._counts["requests"] - self._counts["gave_up"]

    @property
    def requests_gave_up(self) -> int:
        return self._counts["gave_up"]

    def stats(self) -> ResilienceStats:
        """The run's lifecycle ledger (stable field order)."""
        return ResilienceStats(
            retry_causes=tuple(sorted(self._retry_causes.items())),
            **self._counts,
        )

    # -- the lifecycle ------------------------------------------------------------

    def _submit_attempt(self, model: str | None, done, arrival_s: float,
                exclude: tuple[int, ...]) -> RequestHandle:
        if self._is_router:
            return self.target.submit(
                done=done, model=model, arrival_s=arrival_s,
                exclude=exclude,
            )
        return self.target.submit(
            done=done, model=model, arrival_s=arrival_s
        )

    def _budget_allows(self) -> bool:
        budget = self.policy.retry_budget
        if budget is None:
            return True
        spent = self._counts["retries"]
        return spent + 1 <= budget * self._counts["requests"]

    def _run_round(self, model: str | None, arrival_s: float):
        """One attempt plus its optional hedge, raced against the
        timeout; returns ``(winner, failure_cause, attempts)``."""
        env, policy = self.env, self.policy
        attempts: list[RequestHandle] = []

        def submit(exclude: tuple[int, ...] = ()) -> RequestHandle:
            done = env.event()
            handle = self._submit_attempt(model, done, arrival_s, exclude)
            attempts.append(handle)
            self._counts["attempts"] += 1
            return handle

        submit()
        timeout_ev = (
            env.timeout(policy.timeout_s)
            if policy.timeout_s is not None else None
        )
        hedge_ev = (
            env.timeout(policy.hedge_delay_s)
            if policy.hedge_delay_s is not None else None
        )
        # NB: a Timeout is `triggered` (scheduled) from creation in this
        # kernel; `processed` is what means "has fired".  Completion
        # events flip `triggered` only at succeed(), so it is the right
        # check for attempts.
        while True:
            waits = [h.done for h in attempts if not h.done.triggered]
            if hedge_ev is not None and not hedge_ev.processed:
                waits.append(hedge_ev)
            if timeout_ev is not None and not timeout_ev.processed:
                waits.append(timeout_ev)
            yield env.any_of(waits)
            winner = next(
                (h for h in attempts
                 if h.done.triggered and not h.dropped),
                None,
            )
            if winner is not None:
                return winner, None, attempts
            if timeout_ev is not None and timeout_ev.processed:
                return None, "timeout", attempts
            if all(h.done.triggered for h in attempts):
                # Every attempt was shed; a late hedge cannot win a
                # round that already failed.
                return None, "shed", attempts
            if hedge_ev is not None and hedge_ev.processed:
                hedge_ev = None  # one hedge per round
                exclude = tuple(
                    h.node for h in attempts if h.node is not None
                )
                submit(exclude=exclude)
                self._counts["hedges"] += 1
                if self.obs_trace is not None:
                    self.obs_trace.instant(
                        "lifecycle", "hedge",
                        args={"attempt": len(attempts)},
                    )

    def _cleanup(self, attempts: list[RequestHandle],
                 winner: RequestHandle | None) -> None:
        """Cancel every losing attempt still waiting in a queue."""
        for handle in attempts:
            if handle is winner or handle.done.triggered:
                continue
            if self.target.cancel(handle):
                self._counts["cancelled"] += 1

    def _request_proc(self, model: str | None = None, client_done=None):
        env, policy = self.env, self.policy
        arrival_s = env.now
        retries = 0
        first_handle: RequestHandle | None = None
        winner: RequestHandle | None = None
        while True:
            winner, cause, attempts = yield from self._run_round(
                model, arrival_s
            )
            if first_handle is None:
                first_handle = attempts[0]
            self._cleanup(attempts, winner)
            if winner is not None:
                if winner is not attempts[0]:
                    self._counts["hedge_wins"] += 1
                break
            if cause == "timeout":
                self._counts["timeouts"] += 1
                if self.obs_trace is not None:
                    self.obs_trace.instant("lifecycle", "timeout")
            if retries >= policy.max_retries:
                break
            if not self._budget_allows():
                self._counts["budget_denied"] += 1
                break
            retries += 1
            self._counts["retries"] += 1
            self._retry_causes[cause] = (
                self._retry_causes.get(cause, 0) + 1
            )
            if self.obs_trace is not None:
                self.obs_trace.instant(
                    "lifecycle", "retry",
                    args={"cause": cause, "retry": retries},
                )
            delay = policy.retry_backoff_s * (2.0 ** (retries - 1))
            if policy.retry_jitter > 0.0:
                delay += delay * policy.retry_jitter * float(
                    self._rng.random()
                )
            if delay > 0.0:
                yield env.timeout(delay)
        now = env.now
        logical_id = self._next_logical_id
        self._next_logical_id += 1
        if winner is not None:
            closing = winner.record
            record = RequestRecord(
                request_id=logical_id,
                model=winner.model,
                arrival_s=arrival_s,
                dispatch_s=(
                    closing.dispatch_s if closing is not None else now
                ),
                finish_s=now,
                batch_size=(
                    closing.batch_size if closing is not None else 1
                ),
                deadline_s=first_handle.deadline_s,
            )
        else:
            self._counts["gave_up"] += 1
            if self.obs_trace is not None:
                self.obs_trace.instant("lifecycle", "gave-up")
            record = RequestRecord(
                request_id=logical_id,
                model=first_handle.model,
                arrival_s=arrival_s,
                dispatch_s=now,
                finish_s=now,
                batch_size=0,
                deadline_s=first_handle.deadline_s,
                dropped=True,
            )
        self.records.append(record)
        if client_done is not None:
            client_done.succeed()
        self._requests_open -= 1
        self._check_drained()

    def submit(self, done=None, model: str | None = None):
        """Start one logical request arriving now; ``done`` fires when
        it completes or is given up on."""
        # Count synchronously at submission so the drain barrier can
        # never observe injection-done with an uncounted request in
        # flight.
        self._counts["requests"] += 1
        self._requests_open += 1
        self.env.process(self._request_proc(model, done))

    def _drain_counts(self) -> tuple[int, int]:
        """Logical-request tally: a request closes once it completes or
        is given up on, however many attempts that took."""
        return (self.requests_injected - self._requests_open,
                self.requests_injected)
