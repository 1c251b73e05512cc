"""Spectral analysis of the Jaynes-Cummings family of light-matter models.

The package builds the JC, anti-JC, anisotropic, and factorizable-anisotropic
Hamiltonians on a truncated Fock space as two tridiagonal parity chains,
verifies their operator-algebra identities, evaluates the JC/aJC closed forms
(energies, dressed states, crossings, Wigner functions), and validates
everything against a diagonalization oracle. A CLI exports spectra, crossings, Wigner grids, and
verification tables as reproducible CSV/JSON.

The names below load lazily (PEP 562): a name's module, and numpy with it,
is imported on first access, so ``import susyjc`` and the CLI's argv
parsing load no numpy.
"""

import importlib

# module -> the names the package exports from it
_EXPORTS = {
    "algebra": ("IdentityReport", "anticommutator", "commutator",
                "interior_mask", "run_all_checks"),
    "anisotropic": ("JCApproximation", "SqueezedFrame", "approx_spectrum",
                    "effective_hamiltonian", "frame_unitary",
                    "jc_approximation", "lab_frame_offset",
                    "quadrature_weights", "squeeze_parameter"),
    "errors": ("DegenerateAngle", "DegenerateCouplings", "DimensionMismatch",
               "InvalidLabel", "InvalidN", "NoConvergence", "SupportExceeded",
               "SusyJCError", "TruncationTooSmall"),
    "far": ("FarParams", "SpectrumShape", "constraint_check", "far_chains",
            "far_from_alphas", "far_spectrum_shape"),
    "hilbert": ("HilbertConfig", "ModelParams", "ParityChains", "exchange_op",
                "excitation_number", "jc_to_ajc_rotation", "parity_chains",
                "parity_op", "spin_op", "su11_generator"),
    "jc": ("CrossingRecord", "DressedLabel", "coupling_for", "crossing_pair",
           "dressed_energy", "dressed_state", "ground_state_critical",
           "lowest_closed_levels", "rabi_frequency", "reduced_density",
           "von_neumann_entropy"),
    "oracle": ("EigenSolution", "certify_cutoff", "certify_truncation",
               "eigenvalues", "find_crossings"),
    "wigner": ("WignerGrid", "laguerre_pair", "numeric_evaluator",
               "wigner_closed_jc", "wigner_grid"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip __getattr__
    return value


def __dir__():
    return sorted({*globals(), *_MODULE_OF})
