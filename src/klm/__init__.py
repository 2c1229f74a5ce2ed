"""Exact Kazhdan-Lusztig and Z-polynomials of uniform matroids.

Coefficients are computed by several independent exact-rational routes that
must agree on the nose, validated against a formula-free lattice oracle, and
certified real-rooted via Sturm chains and Hurwitz determinants.

``import klm`` registers every engine module of ``_ENGINE`` in
``sys.modules`` and on this package without executing it (importlib's
LazyLoader); a module executes on the first access to one of its attributes.
This is the package's one regime for deferring modules.  ``klm.cli`` binds
the engine with ``from . import``, which executes nothing; an engine module
binds a sibling's names (``from .x import f``, which executes x) only when
every command that executes it calls into x, and otherwise binds the module
and reads ``x.f`` at call time.  So a CLI cache hit executes no engine
module, a miss only what its command calls (``compute kl``: ``polyring`` and
``klcoeff``), and no module executes a sibling that imports it back.  The
public names below resolve on first use (PEP 562) from the registered module
that defines them.
"""

import sys
from importlib.util import LazyLoader, find_spec, module_from_spec

__version__ = "0.1.0"

_ENGINE = ("polyring", "certificate", "klcoeff", "zcoeff", "hooklen", "oracle", "seqfactor",
           "realroot")

for _layer in _ENGINE:
    _spec = find_spec(f"{__name__}.{_layer}")
    _spec.loader = LazyLoader(_spec.loader)
    _module = sys.modules[_spec.name] = globals()[_layer] = module_from_spec(_spec)
    _spec.loader.exec_module(_module)
del _layer, _spec, _module

# Public name -> the engine module that defines it.
_EXPORTS = {
    "Certificate": "certificate",
    "IntegrityError": "polyring",
    "Poly": "polyring",
    "kl_coefficient": "klcoeff",
    "kl_poly": "klcoeff",
    "render": "polyring",
    "z_coefficient": "zcoeff",
    "z_from_kl": "zcoeff",
    "z_poly": "zcoeff",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(globals()[_EXPORTS[name]], name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
