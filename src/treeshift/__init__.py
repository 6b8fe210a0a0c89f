"""Weighted shift operators on directed trees.

Build trees (explicit or family prefixes), attach weight systems, classify
the resulting shift operators, construct model operators from finitely
atomic measures, and cross-check every closed form against sparse
truncation matrices.
"""

from . import classify, measure, models, oracle, shift, tree
from .measure import AtomicMeasure, MomentPrefix
from .shift import WeightSystem
from .tree import DirectedTree, TreeFamily, binary, broom, validate, zline, zminus, zplus

__all__ = [
    "classify",
    "measure",
    "models",
    "oracle",
    "shift",
    "tree",
    "AtomicMeasure",
    "MomentPrefix",
    "WeightSystem",
    "DirectedTree",
    "TreeFamily",
    "validate",
    "broom",
    "binary",
    "zplus",
    "zline",
    "zminus",
]

__version__ = "0.1.0"
