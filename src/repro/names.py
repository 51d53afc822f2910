"""Static name tables: the names a spec may give, read without loading
the layer that implements them.

The study compiler validates a spec against these tuples before it
probes the result cache, so a study served from the cache imports no
controller, hazard or cluster module.  Each owning layer imports its
tuple from here; the registries (:mod:`repro.studies.registry`) answer
``names()`` and membership from them until something binds them.
"""

from __future__ import annotations

CONTROLLER_NAMES = ("resipi", "prowaves", "static")
"""Interposer reconfiguration controllers (SiPh platform), the keys of
:data:`~repro.interposer.photonic.controllers.CONTROLLER_FACTORIES`."""

EPOCH_CONTROLLERS = ("resipi", "prowaves")
"""Controllers whose decisions fire on the config's epoch length
(``resipi_epoch_s``): the spec-level ``platform.controller_epoch_s``
knob applies only to these — the static controller drains monitors on
the same period but never acts on it, so the knob would be inert."""

COMPUTE_HAZARD_KINDS = ("chiplet-mac-degrade",)
"""Hazard kinds that act on the compute path (serving layer) rather
than the photonic fabric."""

NODE_HAZARD_KINDS = ("node-fail", "node-drain", "node-repair",
                     "rack-fail", "rack-repair")
"""Hazard kinds that apply to cluster nodes, not the photonic fabric
(:mod:`repro.cluster.hazards`)."""

ROUTER_NAMES = ("round-robin", "least-outstanding", "weighted",
                "join-shortest-queue", "model-affinity")
"""Cluster routing policies, the keys of
:data:`~repro.cluster.router.ROUTER_FACTORIES`."""

ARRIVAL_NAMES = ("poisson", "mmpp", "closed")
"""Arrival processes (:mod:`repro.sim.traffic`)."""
