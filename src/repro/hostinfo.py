"""What a byte pin depends on besides the code: numpy's BLAS kernel.

OpenBLAS picks its DGEMM kernel from the CPU when it loads, and GEMM
bytes depend on that kernel, so an absolute digest holds for one
(numpy version, BLAS core) pair. :func:`blas_core` names the core.
"""

from __future__ import annotations

import ctypes
from pathlib import Path

__all__ = ["blas_core"]

#: the corename getter of the OpenBLAS build that numpy wheels bundle
_GETTER = "scipy_openblas_get_corename64_"


def blas_core() -> str:
    """The kernel numpy's bundled OpenBLAS runs on this CPU (such as
    ``"SkylakeX"`` or ``"Haswell"``; ``OPENBLAS_CORETYPE`` forces one),
    or ``"unknown"`` when no bundled library exports the getter."""
    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for library in sorted(libs.glob("*openblas*")):
        try:
            getter = getattr(ctypes.CDLL(str(library)), _GETTER, None)
        except OSError:
            continue
        if getter is not None:
            getter.argtypes, getter.restype = [], ctypes.c_char_p
            return getter().decode().strip()
    return "unknown"
