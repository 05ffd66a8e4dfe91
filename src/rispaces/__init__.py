"""Numerical laboratory for rearrangement-invariant function spaces on (0, 1):
norms, K-functionals, and empirical brackets for interpolation identities.

Every name is imported from the module that defines it, such as
``rispaces.norms`` or ``rispaces.equivharness``; the package root holds no
second path to them."""

__version__ = "0.1.0"
