"""Exact combinatorics of Dyck-path cells, affine root windows, and the
ideals of the loop Borel they enumerate.

The package is pure Python over arbitrary-precision integers.  Modules:

* :mod:`catborel.sequences` - the basic-ideal and quasi-abelian counts
  of type A from their closed forms;
* :mod:`catborel.frozen` - the immutable base of the value classes;
* :mod:`catborel.matrices` - the cell-count matrix family and its two
  summation operators;
* :mod:`catborel.dyck` - Dyck paths, peak/valley statistics, cells,
  closed counting formulas;
* :mod:`catborel.rootsys` - finite root systems from type labels and the
  window poset of affine positive roots;
* :mod:`catborel.loopalgebra` - a truncated loop algebra of sl_n with
  explicit matrix brackets, the oracle behind the bracket checks;
* :mod:`catborel.ideals` - basic ideals in type A: path encoding,
  counting, generators, quasi-abelianity, quasi-nilpotency, and a matrix
  bracket oracle;
* :mod:`catborel.supports` - level-normalized supports of arbitrary
  ideals classified by quadruples of paths, with bracket-verified
  witnesses;
* :mod:`catborel.verify` - the cross-check suites behind ``catborel
  verify``;
* :mod:`catborel.cli` - the ``catborel`` command line.

Importing the package loads none of them: import each name from its own
module (``from catborel.dyck import all_paths``).  The command line
loads only the modules its subcommand runs.
"""

__version__ = "0.1.0"
