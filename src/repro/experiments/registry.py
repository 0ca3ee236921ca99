"""Global experiment registry.

Specs register by name; the CLI (and anything else) can list and run
them uniformly.  Built-in specs live in the packages above this one —
the figure, table and ablation modules of :mod:`repro.harness`, the
workload specs of :mod:`repro.workloads` and the saturation sweep of
:mod:`repro.loadgen` — and self-register on import.  The framework
never imports them in an import statement: :func:`load_builtin` names
them by string, and :func:`resolve_spec` imports a ``module:attr``
spec reference the same way: this module is the framework's one plugin
seam, so every package import still points down the layer order.
"""

from __future__ import annotations

import importlib
from typing import Dict, Tuple

from repro.common.errors import ConfigError
from repro.experiments.spec import ExperimentSpec

_REGISTRY: Dict[str, ExperimentSpec] = {}

#: Modules that define the built-in specs (imported lazily, once).
_BUILTIN_MODULES = (
    "repro.harness.fig1",
    "repro.harness.fig7",
    "repro.harness.fig8",
    "repro.harness.fig9",
    "repro.harness.fig10",
    "repro.harness.tables",
    "repro.harness.ablations",
    "repro.workloads.ycsb",
    "repro.workloads.txn_mix",
    "repro.workloads.availability",
    "repro.workloads.elastic",
    "repro.loadgen.sweep",
)
_builtin_loaded = False


def register(spec: ExperimentSpec) -> ExperimentSpec:
    """Register (or re-register) a spec under ``spec.name``."""
    _REGISTRY[spec.name] = spec
    return spec


def load_builtin() -> None:
    """Import every module that defines built-in specs (idempotent)."""
    global _builtin_loaded
    if _builtin_loaded:
        return
    for module in _BUILTIN_MODULES:
        importlib.import_module(module)
    # Only after every import succeeded: a failed import must surface
    # again on the next call, not leave a silent partial registry.
    _builtin_loaded = True


def get(name: str) -> ExperimentSpec:
    load_builtin()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigError(
            f"unknown experiment {name!r}; registered: {', '.join(names())}"
        ) from None


def resolve_spec(ref: str) -> ExperimentSpec:
    """Resolve a spec reference: ``module:attr`` or a registry name.

    A campaign stage names its spec this way, so a request file can
    run a spec that lives outside the registry.  A reference naming
    nothing raises :class:`ConfigError`."""
    if ":" in ref:
        module_name, attr = ref.split(":", 1)
        try:
            spec = getattr(importlib.import_module(module_name), attr)
        except (ImportError, AttributeError, TypeError, ValueError) as exc:
            raise ConfigError(f"cannot resolve experiment {ref!r}: {exc}") from None
        if not isinstance(spec, ExperimentSpec):
            raise ConfigError(f"{ref!r} is not an ExperimentSpec")
        return spec
    return get(ref)


def names() -> Tuple[str, ...]:
    load_builtin()
    return tuple(sorted(_REGISTRY))


def descriptions() -> Dict[str, str]:
    load_builtin()
    return {name: _REGISTRY[name].description for name in names()}
