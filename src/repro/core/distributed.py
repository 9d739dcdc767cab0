"""Compatibility shim: :func:`host_cores` lives in :mod:`repro.runner.parallel`."""

from repro.runner.parallel import host_cores

__all__ = ["host_cores"]
