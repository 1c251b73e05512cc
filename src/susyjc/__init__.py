"""Spectral analysis of the Jaynes-Cummings family of light-matter models.

The package builds the JC, anti-JC, anisotropic, and factorizable-anisotropic
Hamiltonians on a truncated Fock space as two tridiagonal parity chains,
verifies their operator-algebra identities, evaluates the JC/aJC closed forms
(energies, dressed states, crossings, Wigner functions), and validates
everything against a diagonalization oracle. A CLI exports spectra, crossings, Wigner grids, and
verification tables as reproducible CSV/JSON.
"""

from .algebra import (IdentityReport, anticommutator, commutator, interior_mask,
                      run_all_checks)
from .anisotropic import (JCApproximation, SqueezedFrame, approx_spectrum,
                          effective_hamiltonian, frame_unitary,
                          jc_approximation, lab_frame_offset,
                          quadrature_weights, squeeze_parameter)
from .errors import (DegenerateAngle, DegenerateCouplings, DimensionMismatch,
                     EqualCouplings, FactorizationMismatch, InvalidLabel,
                     InvalidN, IsotropicSingularLimit, NoConvergence,
                     SupportExceeded, SusyJCError, TruncationTooSmall)
from .far import (FarParams, SpectrumShape, constraint_check, far_chains,
                  far_from_alphas, far_spectrum_shape)
from .hilbert import (HilbertConfig, ModelParams, ParityChains, boson_op,
                      exchange_op, excitation_number, jc_to_ajc_rotation,
                      parity_chains, parity_op, spin_op, su11_generator)
from .jc import (CrossingRecord, DressedLabel, coupling_for, crossing_pair,
                 dressed_energy, dressed_state, ground_state_critical,
                 lowest_closed_levels, mixing_angle, rabi_frequency,
                 reduced_density, von_neumann_entropy)
from .oracle import (EigenSolution, certify_cutoff, certify_truncation,
                     eigenvalues, find_crossings)
from .wigner import (WignerGrid, laguerre_pair, numeric_evaluator,
                     wigner_closed_jc, wigner_grid)

__version__ = "0.1.0"
