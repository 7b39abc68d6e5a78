"""Exact symbolic calculator for degree-0 vector bundles on an elliptic curve.

Krull-Schmidt normal forms for semifinite bundles, the Clebsch-Gordan
tensor rule twisted by Picard-group arithmetic, Hom and section dimensions,
finiteness classifiers, representation-ring closures, Tannakian group
labels, and an independent Jordan-type oracle over exact rationals.

The public API is the union of the five layers' ``__all__`` lists, resolved
lazily by a module ``__getattr__`` (PEP 562): importing the package runs no
layer, and a lookup imports the layers in ``_LAYERS`` order until one
exports the name.  Resolved names are not kept in the package's globals.
"""

import importlib

__version__ = "0.1.0"
_LAYERS = ("picard", "bundles", "expr", "kring", "jordan")  # dependency order, cheapest first


def __getattr__(name: str):
    if name == "__all__":
        return [public for layer in _LAYERS for public in __getattr__(layer).__all__]
    if name in _LAYERS:
        return importlib.import_module(f"{__name__}.{name}")
    for layer in map(__getattr__, _LAYERS):
        if name in layer.__all__:
            return getattr(layer, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAYERS, *__getattr__("__all__")})
