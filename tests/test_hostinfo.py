"""``repro.hostinfo.blas_core``: the BLAS kernel a byte pin belongs to."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import hostinfo


def test_names_a_core_or_unknown():
    core = hostinfo.blas_core()
    assert isinstance(core, str) and core
    assert core == core.strip()


def test_unknown_without_a_corename_getter(monkeypatch):
    monkeypatch.setattr(hostinfo, "_GETTER", "no_such_getter")
    assert hostinfo.blas_core() == "unknown"


def test_reads_a_forced_kernel():
    """``OPENBLAS_CORETYPE`` picks the kernel at load time; the getter
    reports the one that runs, in a fresh interpreter."""
    if hostinfo.blas_core() == "unknown":
        pytest.skip("numpy bundles no OpenBLAS with a corename getter")
    src = str(Path(hostinfo.__file__).resolve().parent.parent)
    out = subprocess.run(
        [sys.executable, "-c",
         "from repro.hostinfo import blas_core; print(blas_core())"],
        env={**os.environ, "OPENBLAS_CORETYPE": "Haswell", "PYTHONPATH": src},
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "Haswell"
