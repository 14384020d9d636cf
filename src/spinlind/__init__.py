"""Semiclassical Lindblad-like dynamics and stick spectra for CW magnetic resonance.

The error classes load with the package; every other top-level name loads
its submodule on first access (PEP 562), so ``import spinlind`` and a CLI
run import only the modules they use.
"""

import importlib

from .errors import (
    AccuracyError,
    DomainViolationError,
    PoleError,
    SpinLindError,
    ValidationError,
    WitnessInapplicableError,
)

__version__ = "0.1.0"

# top-level name -> the submodule that defines it
_LAZY = {
    "FrequencyDistribution": "lineshape",
    "delta_line": "lineshape",
    "gaussian": "lineshape",
    "lorentzian": "lineshape",
    "FieldConfig": "mastereq",
    "MasterEquationModel": "mastereq",
    "build_model": "mastereq",
    "propagate": "mastereq",
    "QubitParams": "qubit",
    "EquivalentGroup": "spectrum",
    "StickSpectrum": "spectrum",
    "generating_polynomial": "spectrum",
    "stick_spectrum": "spectrum",
    "SpinSystem": "spincore",
    "beta_from_kelvin": "spincore",
    "compress": "spincore",
    "decompress": "spincore",
}

__all__ = [
    "AccuracyError",
    "DomainViolationError",
    "PoleError",
    "SpinLindError",
    "ValidationError",
    "WitnessInapplicableError",
    *_LAZY,
    "__version__",
]


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
