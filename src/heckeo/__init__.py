"""heckeo: exact Hecke-algebra and Kazhdan-Lusztig combinatorics, a
Grothendieck-group model of the graded principal block, and a rank-one
categorical verification suite."""

__version__ = "0.1.0"

from .laurent import LaurentPoly, v, v_pow
from .weyl import CartanDatum, WeylElt, WeylGroup, build_group, weyl_suite
from .hecke import HeckeAlgebra, HeckeElt
from .k0 import BasisKind, K0Block, K0Class
from .report import VerificationReport, emit

__all__ = [
    "LaurentPoly",
    "v",
    "v_pow",
    "CartanDatum",
    "WeylGroup",
    "WeylElt",
    "build_group",
    "weyl_suite",
    "HeckeAlgebra",
    "HeckeElt",
    "BasisKind",
    "K0Block",
    "K0Class",
    "VerificationReport",
    "emit",
    "__version__",
]
