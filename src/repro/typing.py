"""Shared array-type vocabulary for the ``repro`` package.

Public array-returning APIs annotate their signatures with these aliases
instead of a bare ``np.ndarray`` (enforced by the ``bare_ndarray_return``
check in ``tests/test_static_contracts.py``): the alias names the *dtype
contract* of the value, and the docstring states the shape.  ``FloatArray`` vs ``ComplexArray`` matters here — the MFT
cross-spectral solves are intrinsically complex while covariances and
PSDs must come out real — so the distinction is part of each function's
numerical contract, not decoration.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Union

import numpy as np

if TYPE_CHECKING:
    import numpy.typing as npt

    #: Any numpy array, dtype unspecified.  Prefer a dtyped alias below.
    Array = npt.NDArray[Any]
    #: Real double-precision array (covariances, PSDs, time grids).
    FloatArray = npt.NDArray[np.float64]
    #: Complex double-precision array (HTFs, envelope coefficients,
    #: cross-spectral fixed points).
    ComplexArray = npt.NDArray[np.complex128]
    #: Integer index/harmonic array.
    IntArray = npt.NDArray[np.int_]
    #: Boolean mask array.
    BoolArray = npt.NDArray[np.bool_]
    #: Anything convertible by ``np.asarray`` — input positions only.
    ArrayLike = npt.ArrayLike
else:  # pragma: no cover - runtime fallback keeps imports cheap
    Array = np.ndarray
    FloatArray = np.ndarray
    ComplexArray = np.ndarray
    IntArray = np.ndarray
    BoolArray = np.ndarray
    ArrayLike = Any

#: A scalar or an array of them — sweep APIs accept both.
ScalarOrArray = Union[float, "FloatArray"]

__all__ = [
    "Array",
    "FloatArray",
    "ComplexArray",
    "IntArray",
    "BoolArray",
    "ArrayLike",
    "ScalarOrArray",
]
