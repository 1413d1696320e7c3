"""kerrcat: a numerical laboratory for the squeeze-driven Kerr oscillator."""

from .fock import (HamiltonianParams, annihilation, build_hamiltonian,
                   coherent_state, default_dim, displaced_hamiltonian,
                   displacement_operator, number_operator, parity_operator,
                   quadrature_x)
from .spectra import (EigenSystem, TunnelSplitting, degeneracy_check,
                      eigensystem, exact_block_eigenvalues,
                      find_splitting_zeros, first_order_crossing_amplitude,
                      levels, localized_pair, second_order_energy,
                      splitting_sweep, tunnel_splitting)
from .semiclassical import (EbkCount, MetapotentialGeometry, PhaseRegion,
                            classify_phase, ebk_bound_state_count, geometry,
                            metapotential_classical, separatrix_area,
                            wkb_splitting)
from .dynamics import (LindbladConfig, RampProtocol, RampSegment, Trajectory,
                       evolve, lindblad_rhs, rabi_map, run_protocol,
                       tx_lifetime, well_signal)
from .phasespace import (NormalOrderedOperatorPoly, PhaseSpacePolynomial,
                         WignerGrid, mccoy_quantize, moyal_bracket,
                         star_product, wigner_function,
                         wigner_transform_operator)

__version__ = "0.1.0"
