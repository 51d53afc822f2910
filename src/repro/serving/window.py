"""The serving window every serving front shares: inject, run, drain.

A *front* is whatever an arrival stream submits to: one node's
:class:`~repro.serving.scheduler.RequestScheduler`, a fleet's
:class:`~repro.cluster.router.ClusterRouter`, or the resilience
:class:`~repro.serving.lifecycle.LifecycleDriver` wrapped around
either.  :class:`ServingWindow` runs the window for all of them: an
open-loop gap stream (or a closed-loop client population) injects
requests for ``duration_s`` of simulated time, then the run drains
until every injected request has closed.
"""

from __future__ import annotations

from typing import Iterator

from ..errors import ConfigurationError, SimulationError
from ..sim.traffic import ClosedLoopClients

DEFAULT_DRAIN_LIMIT_S = 1.0
"""Simulated-time hang guard for draining in-flight requests after
injection stops (generous: serving windows are µs–ms scale)."""


class ServingWindow:
    """Base of the serving fronts: one single-shot :meth:`serve`.

    A front supplies two things: ``submit(done=None, model=None, ...)``,
    which injects one request arriving now and fires ``done`` once it
    closes, and ``_drain_counts()``, its ``(closed, injected)`` request
    tally — the window has drained when injection is over and the two
    are equal.
    """

    def __init__(self, env) -> None:
        self.env = env
        self._injection_done = False
        self._drained = env.event()
        self._served = False

    def _check_drained(self) -> None:
        """Fire the drain barrier once injection is over and every
        injected request has closed."""
        if self._injection_done and not self._drained.triggered:
            closed, injected = self._drain_counts()
            if closed == injected:
                self._drained.succeed()

    def _submit_next(self, models: Iterator | None, done=None) -> None:
        """Submit the next request of the ``models`` stream.

        The stream yields bare model names (single-shot requests) or
        ``(model, prompt_tokens, output_tokens)`` tuples (sequence
        requests); without a stream every request targets the front's
        primary model.
        """
        if models is None:
            self.submit(done=done)
            return
        item = next(models)
        if isinstance(item, tuple):
            model, prompt, output = item
            self.submit(done=done, model=model, prompt_tokens=prompt,
                        output_tokens=output)
        else:
            self.submit(done=done, model=item)

    def _open_loop_injector(self, arrivals, duration_s: float,
                            models: Iterator | None):
        """Inject an open-loop gap stream for the duration window."""
        for gap in arrivals.gaps():
            yield self.env.timeout(gap)
            if self.env.now > duration_s:
                return
            self._submit_next(models)

    def _closed_loop_client(self, clients: ClosedLoopClients, index: int,
                            duration_s: float, models: Iterator | None):
        """One closed-loop client: think, request, await completion."""
        for gap in clients.think_gaps(index):
            yield self.env.timeout(gap)
            if self.env.now > duration_s:
                return
            done = self.env.event()
            self._submit_next(models, done)
            yield done

    def _watch_injection(self, injectors):
        yield self.env.all_of(injectors)
        self._injection_done = True
        self._check_drained()

    def serve(self, arrivals, duration_s: float,
              drain_limit_s: float = DEFAULT_DRAIN_LIMIT_S,
              models: Iterator | None = None) -> None:
        """Run the full serving window: inject, serve, drain.

        ``arrivals`` is any open-loop process exposing ``gaps()`` (e.g.
        :class:`~repro.sim.traffic.PoissonArrivals`,
        :class:`~repro.sim.traffic.MMPPArrivals`) or a
        :class:`~repro.sim.traffic.ClosedLoopClients` population.
        ``models`` optionally names the target of each injected request
        (an infinite iterator, e.g. a seeded traffic-mix sampler; see
        :meth:`_submit_next`).  Returns once every injected request has
        closed — completed, shed or given up on.
        """
        if duration_s <= 0:
            raise ConfigurationError(
                f"serving duration must be positive, got {duration_s}"
            )
        name = type(self).__name__
        if self._served:
            # The drained barrier and injection flags are one-shot;
            # reuse would silently simulate nothing.
            raise SimulationError(
                f"{name}.serve() is single-shot; build a new {name} for "
                "another serving window"
            )
        self._served = True
        if isinstance(arrivals, ClosedLoopClients):
            injectors = [
                self.env.process(
                    self._closed_loop_client(arrivals, index, duration_s,
                                             models)
                )
                for index in range(arrivals.n_clients)
            ]
        elif hasattr(arrivals, "gaps"):
            injectors = [
                self.env.process(
                    self._open_loop_injector(arrivals, duration_s, models)
                )
            ]
        else:
            raise ConfigurationError(
                f"unsupported arrival process {arrivals!r}"
            )
        self.env.process(self._watch_injection(injectors))
        limit = duration_s + drain_limit_s
        try:
            self.env.run_until_event(self._drained, limit=limit)
        except SimulationError as error:
            closed, injected = self._drain_counts()
            raise SimulationError(
                f"{name}.serve() did not drain: {closed}/{injected} "
                f"requests closed within {limit} s — {error}"
            ) from error
