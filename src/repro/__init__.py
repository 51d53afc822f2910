"""repro: reproduction of "Machine Learning Accelerators in 2.5D Chiplet
Platforms with Silicon Photonics" (DATE 2023).

Public API highlights:

* :mod:`repro.dnn` — DNN model descriptions and the Table 2 zoo.
* :mod:`repro.photonics` — silicon-photonic device models.
* :mod:`repro.core` — the accelerator platforms (monolithic CrossLight,
  2.5D electrical, 2.5D photonic with ReSiPI).
* :mod:`repro.experiments` — regenerators for every table and figure.
* :mod:`repro.studies` — the declarative scenario API: serializable
  study specs, plugin registries and the ``run_study`` compiler.

Every package loads its layers on first use (:func:`_lazy_package`):
``import repro`` imports no submodule, and a study imports exactly the
layers it runs.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Callable, Mapping


def _lazy_package(
    package: str, exports: Mapping[str, tuple[str, ...]],
) -> tuple[Callable[[str], object], Callable[[], list[str]], list[str]]:
    """PEP 562 hooks re-exporting a package's names on first access.

    ``exports`` maps a submodule (relative to ``package``) to the names
    the package re-exports from it.  Returns the package's
    ``__getattr__``, its ``__dir__`` and its ``__all__``:

    * a re-exported name imports its submodule on first access and is
      cached in the package namespace, so the hook runs once per name;
    * any other attribute that names a submodule imports it, so
      ``import repro; repro.sim.core.Environment`` resolves;
    * anything else raises :class:`AttributeError` naming the package.
    """
    homes = {
        name: module for module, names in exports.items() for name in names
    }
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str):
        home = homes.get(name)
        if home is not None:
            value = getattr(import_module(home, package), name)
            namespace[name] = value
            return value
        if not name.startswith("__"):
            submodule = f"{package}.{name}"
            try:
                return import_module(submodule)
            except ModuleNotFoundError as error:
                if error.name != submodule:
                    raise
        raise AttributeError(
            f"module {package!r} has no attribute {name!r}"
        )

    def __dir__() -> list[str]:
        return sorted({*namespace, *homes})

    return __getattr__, __dir__, list(homes)


__version__ = "1.0.0"

__getattr__, __dir__, __all__ = _lazy_package(__name__, {
    ".config": ("DEFAULT_PLATFORM", "PlatformConfig"),
    ".core.crosslight": ("MonolithicCrossLight",),
    ".core.elec": ("CrossLight25DElec",),
    ".core.siph": ("CrossLight25DSiPh",),
    ".core.metrics": ("InferenceResult",),
})

__all__.append("__version__")
