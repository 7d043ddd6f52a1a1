"""Exact equivariant K-theory push-forwards on homogeneous spaces, computed
two independent ways: fixed-point localization sums and iterated residues at
zero and infinity."""

__version__ = "0.1.0"
