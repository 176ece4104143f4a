"""wmvlab: a desk-scale computational laboratory for cubic Weyl sums.

The object of study is g(alpha, beta; X) = sum over 1 <= x <= X of
e(alpha x^3 + beta x) and its degree-k cousins: exact even-moment counts,
FFT torus quadrature for the rest, major/minor arc dissection, and the
bound calculus that compares Weyl-type estimates regime by regime.
"""

from .arcs import (ArcLabel, RationalApprox, classify, convergents,
                   dirichlet_approx, major_measure, psi)
from .bounds import (BoundComparison, BoundProfile, HCount, bound_values,
                     exponent_curves, k_bound_check, k_counts, kappa,
                     phi_quantity, theta_quantity)
from .counting import (beta_fourth_moment, brute_force_moment, moment_count,
                       ninth_moment_bracket, reciprocal_sum_bound,
                       u_identity_rhs, vinogradov_count, vinogradov_j)
from .fitting import FitResult, fit_powerlaw, fit_segre
from .phase import FixedPhase, eval_f, eval_g, unit
from .runcache import (CacheCorruption, CacheVersionMismatch, ResultCache,
                       RunRecord, append_records)
from .runner import run_plan
from .torusgrid import (GridSpec, MomentEstimate, amplitude_row, arc_mask,
                        even_moment_exact, moment_estimate, restricted_profile)

__version__ = "0.1.0"
