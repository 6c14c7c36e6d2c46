"""Boolean-matrix and lattice representations of hereditary collections."""

from .errors import BoolrepError
from .sbcore import SB, BoolMatrix, Witness, columns_independent, is_nonsingular, \
    matrix_rank, permanent, triangular_certificate, witness_for
from .lattice import FiniteLattice, FlatFamily, VGenLattice, c_independent, \
    closure_in_lattice, congruent, flats_of_matrix, lattice_from_covers, \
    lattice_from_matrix, matrix_of
from .hereditary import HereditaryCollection, RankFunction, hyperplanes, \
    is_boolean_representable, rank_function, truncation, uniform
from .reps import RepRecord, RepresentationLattice, count_up_to_e_bijection, \
    enumerate_fisfl, is_rowmin, join_families, matrix_represents, mindeg, \
    minimal_representations, order_le, represents, rowsum_closure, \
    sji_representations, stack_matrices

__version__ = "0.1.0"
