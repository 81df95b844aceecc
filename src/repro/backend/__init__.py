"""Pluggable array-module backend for the batched spectral kernels.

The parameter-batched spectral pipeline performs all of its heavy array
math — ``matmul`` contractions, batched LU solves, eigendecompositions —
through the module object returned by :func:`array_module` instead of a
hard ``import numpy`` at each call site.  Today the only registered
backend is numpy, and it is selected by default, so every existing
solver path is *bit-identical* before and after this shim: the functions
resolved through ``xp`` are the very same numpy functions that were
called directly before.

The indirection exists so an accelerator module (cupy, jax.numpy) can be
slotted in later by registering it here, without touching the kernel
math in :mod:`repro.mft.spectral`.  The contract a backend must satisfy
is the numpy API surface actually used by the kernels:

- ``xp.matmul``, ``xp.moveaxis``, ``xp.eye``, ``xp.zeros``, ``xp.ones``,
  ``xp.abs``, ``xp.exp``, ``xp.real``, ``xp.conj``, ``xp.where``,
  ``xp.isfinite``,
- ``xp.linalg.solve``, ``xp.linalg.eig``, ``xp.linalg.cond``,
- numpy-compatible broadcasting and complex dtypes.

Backends are registered process-wide and selected by name; selection is
explicit (:func:`use_backend`) rather than environment-driven so a sweep
cannot silently change numerics between runs.
"""

from __future__ import annotations

import threading
import types
from typing import Iterator

import numpy

__all__ = [
    "array_module",
    "available_backends",
    "backend_name",
    "register_backend",
    "use_backend",
]

_LOCK = threading.Lock()
_BACKENDS: dict[str, types.ModuleType] = {"numpy": numpy}
_ACTIVE = "numpy"


def register_backend(name: str, module: types.ModuleType) -> None:
    """Register ``module`` as a selectable array backend.

    ``module`` must expose the numpy API subset documented in the module
    docstring.  Registering an existing name replaces it, which is how a
    test can swap in an instrumented proxy.
    """
    if not name:
        raise ValueError("backend name must be non-empty")
    for attr in ("matmul", "eye", "moveaxis", "linalg"):
        if not hasattr(module, attr):
            raise TypeError(
                f"backend {name!r} lacks required attribute {attr!r}"
            )
    with _LOCK:
        _BACKENDS[name] = module


def available_backends() -> tuple[str, ...]:
    """Names of all registered backends, registration-ordered."""
    with _LOCK:
        return tuple(_BACKENDS)


def backend_name() -> str:
    """Name of the currently active backend (``"numpy"`` by default)."""
    with _LOCK:
        return _ACTIVE


def array_module() -> types.ModuleType:
    """Return the active array module (``xp``) for kernel math."""
    with _LOCK:
        return _BACKENDS[_ACTIVE]


class _BackendSelection:
    """Context-manager handle returned by :func:`use_backend`."""

    def __init__(self, previous: str) -> None:
        self._previous = previous

    def __enter__(self) -> types.ModuleType:
        return array_module()

    def __exit__(self, *exc: object) -> None:
        global _ACTIVE
        with _LOCK:
            _ACTIVE = self._previous


def use_backend(name: str) -> _BackendSelection:
    """Select backend ``name``; usable as a statement or context manager.

    As a plain call it switches the process-wide backend.  As a context
    manager it restores the previously active backend on exit, which is
    the form tests use::

        with use_backend("numpy") as xp:
            ...
    """
    global _ACTIVE
    with _LOCK:
        if name not in _BACKENDS:
            known = ", ".join(sorted(_BACKENDS))
            raise KeyError(f"unknown backend {name!r}; registered: {known}")
        previous = _ACTIVE
        _ACTIVE = name
    return _BackendSelection(previous)


def _iter_module_names() -> Iterator[str]:
    """Internal helper for diagnostics dumps (kept API-stable)."""
    yield from available_backends()
