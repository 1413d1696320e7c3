from .poly import (NormalOrderedOperatorPoly, PhaseSpacePolynomial,
                   LindbladPhaseSpaceReport, a_var, astar_var, convert_basis,
                   effective_hamiltonian_surface, kerr_lamb_shift_check,
                   lindblad_phase_space_identity, mccoy_quantize,
                   mccoy_x_ordered_symbol, moyal_bracket, p_var,
                   poisson_bracket, star_commutator, star_product, star_term,
                   wigner_transform_operator, x_var)
from .wigner import WignerGrid, wigner_function

__all__ = [
    "PhaseSpacePolynomial", "NormalOrderedOperatorPoly",
    "LindbladPhaseSpaceReport",
    "a_var", "astar_var", "x_var", "p_var",
    "star_product", "star_term", "star_commutator", "moyal_bracket",
    "poisson_bracket", "mccoy_quantize", "mccoy_x_ordered_symbol",
    "wigner_transform_operator", "convert_basis",
    "effective_hamiltonian_surface", "kerr_lamb_shift_check",
    "lindblad_phase_space_identity",
    "WignerGrid", "wigner_function",
]
