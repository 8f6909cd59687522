"""Frobenius stratification calculator for rank-3 bundles on a genus-2 curve
in characteristic 3: exact finite-field arithmetic, Harder-Narasimhan polygon
enumeration, the truncated local pull-back model, slope certificates, and the
strata dimension ledger."""

# the package namespace is the union of the modules' __all__ lists
from .gfield import *
from .localmodel import *
from .polygon import *
from .slopecalc import *
from .strata import *

__version__ = "0.1.0"
