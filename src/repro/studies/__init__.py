"""Declarative scenario API: one spec, one registry, one entry point.

Every study — the paper's evaluation matrix, DSE sweeps, serving
scenarios — is a :class:`~repro.studies.spec.StudySpec`: a frozen,
JSON-round-trippable value describing the traffic mix (with per-model
SLOs and priorities), the platform, the scheduling policy and the sweep
grid.  :func:`~repro.studies.compile.run_study` is the single compiler
that lowers any spec onto the parallel/cached cell machinery; the
registries in :mod:`~repro.studies.registry` resolve every name with
typed did-you-mean errors and accept external plugins.

Typical use::

    from repro.studies import StudySpec, run_study

    spec = StudySpec.from_json(Path("study.json").read_text())
    study = run_study(spec, jobs=4, cache_dir=".repro-cache")
    for point in study.points:
        print(point.spec.digest[:12], point.results)

Every name loads its submodule on first access (PEP 562), so reading
a spec never imports the compiler, and the compiler loads the serving
layers only for serving studies.
"""

from .. import _lazy_package

__getattr__, __dir__, __all__ = _lazy_package(__name__, {
    ".registry": (
        "ARRIVALS",
        "CONTROLLERS",
        "HAZARDS",
        "MODELS",
        "PLATFORMS",
        "ROUTERS",
        "Registry",
    ),
    ".spec": (
        "FIDELITY_MODES",
        "SCHEDULER_POLICIES",
        "SPEC_SCHEMA_VERSION",
        "ClusterSpec",
        "FaultEventSpec",
        "FaultSpec",
        "FidelitySpec",
        "ModelTraffic",
        "NodeOverrideSpec",
        "PlatformSpec",
        "ResilienceSpec",
        "SchedulerSpec",
        "StudySpec",
        "SweepAxis",
        "SweepSpec",
        "TelemetrySpec",
        "WorkloadSpec",
        "spec_digest",
    ),
    ".compile": (
        "InferenceCell",
        "StudyPoint",
        "StudyResult",
        "expand_points",
        "load_spec",
        "lower_study",
        "render_dry_run",
        "render_study",
        "resolve_config",
        "run_study",
        "simulate_inference_cell",
    ),
    ".builders": (
        "controller_ablation_spec",
        "gateway_sweep_spec",
        "multi_tenant_mix_spec",
        "run_spec",
        "serve_study_spec",
        "slo_attainment_sweep_spec",
        "wavelength_sweep_spec",
    ),
})
