"""Exact computation of spin intersection numbers from matrix-model correlators.

The package computes intersection numbers of the moduli space of p-spin
curves with one and two marked points from Gaussian random-matrix
correlators with an external source: exact symbolic expansion and
reduction, tautological-equation verification, continuation in p, and
numerical cross-checks, with a command-line front end (``pspin``).
Importing the package loads no submodule; import each name from its module.
"""

__version__ = "0.1.0"
