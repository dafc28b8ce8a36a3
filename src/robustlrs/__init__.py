"""robustlrs: certified decision procedures for robustness variants of the
Skolem and (ultimate) positivity problems of rational linear recurrences,
plus an executable lab for the order-6 geometric constructions connecting
ball positivity to Diophantine approximation.
"""

from .qmath import Q, parse_rational, format_rational
from .interval import Ival, Box
from .algebraic import (AlgebraicNumber, NumberField, FieldElement,
                        isolate_roots, power_product_is_one,
                        identify_root_of_unity)
from .lrs import (Lrr, InitialConfig, Ball, SpectralData, ExpPolySolution,
                  DominantForm, Recurrence, eval_terms, spectral, recurrence,
                  exp_poly_solution, normalize, residual_threshold,
                  OrbitScanner)
from .torus import (RelationLattice, TorusParam, TorusPoint,
                    relation_lattice, parametrize)
from .optimize import (SignOutcome, DominantFamily, mu, nu, min_over_ball,
                       DEFAULT_TOL)
from .decide import (Decision, Certificate, Analysis, closure_torus,
                     exists_robust_positivity, exists_robust_skolem,
                     exists_robust_ultimate_positivity,
                     robust_nonuniform_ultpos_open_ball)
from .hardness import (HardnessParams, CoefficientBasisPoint,
                       build_hardness_lrr, basis_change, cone_contains,
                       ball_gadget, min_ball_term, compute_params,
                       lagrange_prefix, approximate_L)
from .serialize import ProblemSpec, parse_problem

__version__ = "0.1.0"
