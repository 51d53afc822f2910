"""Exception hierarchy for the repro library.

All library-specific failures derive from :class:`ReproError` so that
callers can catch one base class.  Subclasses separate configuration
mistakes (user-fixable) from modelling violations (internal invariants).
"""

from __future__ import annotations

import difflib
from typing import Iterable, Sequence


class ReproError(Exception):
    """Base class for every error raised by this library."""


class ConfigurationError(ReproError):
    """An architecture or device configuration is invalid or inconsistent."""


def did_you_mean(name: object, known: Iterable[str]) -> tuple[str, ...]:
    """Close matches for a mistyped name among the registered ones
    (none when the name is not a string at all, e.g. a JSON number)."""
    if not isinstance(name, str):
        return ()
    return tuple(
        difflib.get_close_matches(name, list(known), n=3, cutoff=0.4)
    )


class UnknownNameError(ConfigurationError, KeyError):
    """A registry lookup failed: no entry under the requested name.

    Also a :class:`KeyError` because the registries replaced plain
    dictionary lookups — callers catching ``KeyError`` keep working.
    Carries the registry kind, the failing name, the registered names,
    the registry's own name (``registry``, e.g. ``"ROUTERS"`` — multi-
    registry specs need the message to say *which* table rejected the
    name) and a did-you-mean suggestion list for error messages.
    """

    def __init__(self, kind: str, name: object, known: Sequence[str],
                 registry: str | None = None):
        self.kind = kind
        self.name = name
        self.known = tuple(known)
        self.registry = registry
        self.suggestions = did_you_mean(name, self.known)
        message = f"unknown {kind} {name!r}"
        if registry:
            message += f" in {registry} registry"
        if self.suggestions:
            message += (
                "; did you mean "
                + " or ".join(repr(s) for s in self.suggestions)
                + "?"
            )
        message += f" (registered: {', '.join(self.known)})"
        super().__init__(message)
        self.args = (message,)

    def __str__(self) -> str:  # KeyError would repr() the message
        return self.args[0]

    def __reduce__(self):
        # args holds the rendered message, not the ctor signature —
        # rebuild from the fields so worker-process raises survive
        # the trip back through the process pool.
        return (type(self), (self.kind, self.name, self.known,
                             self.registry))


class SpecError(ConfigurationError):
    """A declarative study spec is malformed or fails validation."""


class AdmissionError(ConfigurationError):
    """A request can never be admitted: its KV cache exceeds the
    platform's total residency capacity even with every weight evicted."""


class LinkBudgetError(ReproError):
    """A photonic link cannot close: losses exceed the available power."""


class MappingError(ReproError):
    """A DNN layer cannot be mapped onto the available compute resources."""


class SimulationError(ReproError):
    """The discrete-event simulation kernel detected an invariant violation."""


class ShapeError(ReproError):
    """DNN tensor shapes are incompatible with a layer's expectations."""
