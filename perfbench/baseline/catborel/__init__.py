"""Exact combinatorics of Dyck-path cells, affine root windows, and the
ideals of the loop Borel they enumerate.

The package is pure Python over arbitrary-precision integers.  Modules:

* :mod:`catborel.matrices` - the cell-count matrix family and its two
  summation operators;
* :mod:`catborel.dyck` - Dyck paths, peak/valley statistics, cells,
  closed counting formulas;
* :mod:`catborel.rootsys` - finite root systems from Cartan data and the
  window poset of affine positive roots;
* :mod:`catborel.ideals` - basic ideals in type A: path encoding,
  counting, generators, quasi-abelianity, quasi-nilpotency, and a matrix
  bracket oracle;
* :mod:`catborel.supports` - level-normalized supports of arbitrary
  ideals classified by quadruples of paths, with bracket-verified
  witnesses;
* :mod:`catborel.verify` - the cross-check suites behind ``catborel
  verify``.
"""

from .dyck import DyckPath, all_paths, cell_paths, pyramid, staircase
from .ideals import BasicIdeal, enumerate_basic, b_count_formula
from .matrices import ExactMatrix, catalan_matrix, dot, omega, tau
from .rootsys import FiniteRootSystem, WindowPoset, build_root_system, window
from .supports import SupportQuadruple, classify, enumerate_classes

__all__ = [
    "DyckPath",
    "all_paths",
    "cell_paths",
    "pyramid",
    "staircase",
    "BasicIdeal",
    "enumerate_basic",
    "b_count_formula",
    "ExactMatrix",
    "catalan_matrix",
    "dot",
    "omega",
    "tau",
    "FiniteRootSystem",
    "WindowPoset",
    "build_root_system",
    "window",
    "SupportQuadruple",
    "classify",
    "enumerate_classes",
]

__version__ = "0.1.0"
