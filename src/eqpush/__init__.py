"""Exact equivariant K-theory push-forwards on homogeneous spaces, computed
two independent ways: fixed-point localization sums and iterated residues at
zero and infinity."""

from .algebra import (InvariantError, LaurentPolynomial, MixedVariableTables,
                      Monomial, NotDivisible, NotPolynomial, VariableTable,
                      exact_divide, parameter_table, rational, zt_table)
from .characters import bracket, standard_sets
from .polyfam import (Partition, complement_partition, grothendieck_general,
                      grothendieck_pair, rectangle_partitions, schur_pair)
from .residue import (ResidueForm, iterated_residue, make_form,
                      residue_at_infinity, residue_at_zero)
from .spaces import (SpaceDescriptor, SymmetryViolation, localization_pushforward,
                     parse_space, residue_pushforward)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
