"""Noncommutative differential forms with the rotation operator's exact
spectral calculus, plus the classical Hodge/torsion side and two leafwise
toolkits (deformation sweeps and defining-form quadrature)."""

__version__ = "0.1.0"

from .algebra import (Algebra, BUILTIN_ALGEBRAS, builtin_algebra,
                      load_algebra, make_algebra)
from .errors import (BadGram, BadWeights, DegreeOutOfWindow, DimMismatch,
                     GridTooCoarse, GridTooLarge, InputError, LeafTooLarge,
                     LeafTooSmall, NCHodgeError, NotAComplex,
                     NotIntegrable, NumericalRankAmbiguous, OutOfFloatRange,
                     PolynomialRelationViolated, ShapeMismatch,
                     SingularOnComplement, VanishingOmega, WindowTooLarge)
from .foliation import (BUILTIN_MODELS, FoliatedModel, builtin_model,
                        circle_leaf, load_model, make_model, random_smooth_phi,
                        torus_leaf, witten_betti_sweep, witten_complex)
from .forms import (Form, FormsWindow, apply_b, apply_d, apply_k,
                    build_window, multiply_forms, operator_matrices,
                    window_identity_residuals)
from .gv import godbillon_vey, gv_report
from .hodge import (CochainComplex, abelian_cs_partition, betti_numbers,
                    decompose, direct_sum, hodge_package, laplacian_spectra,
                    load_complex, make_complex, random_complex, rs_torsion,
                    twisted_circle_complex)
from .morse import BUILTIN_CHARTS, LeafChart, builtin_chart, morse_scan
from .scalars import FLOAT, GAUSSIAN, RATIONAL, ScalarField, field_for
from .selftest import CRITERIA, run_all, run_criterion
from .spectral import (eigenprojection_float, greens_operator,
                       harmonic_projection, hodge_split, spectral_data,
                       spectral_report, spectrum_report)

__all__ = [name for name in dir() if not name.startswith("_")]
