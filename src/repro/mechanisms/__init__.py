"""Declarative mechanism specs and the registry the simulator builds from.

``MechanismSpec`` states a mechanism as the paper's five Section-4
building blocks; :func:`register_mechanism` makes it buildable by name
through :func:`build_manager`, the sweep runner, and the CLI.  The
seven canonical paper mechanisms (``MANAGER_KINDS``) and two novel
hybrids (:mod:`repro.mechanisms.hybrids`) are registered on import.
"""

from .registry import (
    MANAGER_KINDS,
    build_manager,
    get_mechanism,
    mechanism_names,
    register_mechanism,
    unregister_mechanism,
)
from .spec import (
    FLEXIBILITIES,
    MEMORY_KINDS,
    REMAP_POLICIES,
    TRIGGERS,
    MechanismSpec,
    manager_shape,
)

__all__ = [
    "MANAGER_KINDS",
    "build_manager",
    "get_mechanism",
    "mechanism_names",
    "register_mechanism",
    "unregister_mechanism",
    "FLEXIBILITIES",
    "MEMORY_KINDS",
    "REMAP_POLICIES",
    "TRIGGERS",
    "MechanismSpec",
    "manager_shape",
]
