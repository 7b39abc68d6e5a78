"""Exact symbolic calculator for degree-0 vector bundles on an elliptic curve.

Krull-Schmidt normal forms for semifinite bundles, the Clebsch-Gordan
tensor rule twisted by Picard-group arithmetic, Hom and section dimensions,
finiteness classifiers, representation-ring closures, Tannakian group
labels, and an independent Jordan-type oracle over exact rationals.

The public API is the union of the five layers' ``__all__`` lists.
"""

from . import bundles, expr, jordan, kring, picard
from .bundles import *
from .expr import *
from .jordan import *
from .kring import *
from .picard import *

__version__ = "0.1.0"

__all__ = [*picard.__all__, *bundles.__all__, *kring.__all__, *jordan.__all__, *expr.__all__]
