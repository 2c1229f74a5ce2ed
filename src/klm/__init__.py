"""Exact Kazhdan-Lusztig and Z-polynomials of uniform matroids.

Coefficients are computed by several independent exact-rational routes that
must agree on the nose, validated against a formula-free lattice oracle, and
certified real-rooted via Sturm chains and Hurwitz determinants.

The public names below load their module on first use (PEP 562), so that
``import klm`` imports no engine module until one is needed.  ``klm.cli``,
started as ``python -m klm.cli`` or imported by the ``klm`` console script,
goes one step further for the same reason: it puts every engine module into
``sys.modules`` and onto this package unexecuted, and a module executes on
the first access to one of its attributes.
"""

__version__ = "0.1.0"

# Public name -> the submodule that defines it.
_EXPORTS = {
    "Certificate": "certificate",
    "IntegrityError": "arith",
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
    from importlib import import_module
    value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
