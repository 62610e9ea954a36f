"""Exact apolarity toolkit for homogeneous forms.

Catalecticants, Hilbert functions, mixed Hessians, Lefschetz property
checks, Waring and cactus rank bounds, and machine checkable wildness
certificates, all in exact rational arithmetic.
"""

from .poly import (DiffOp, Form, LinearForm, apply, bigrade, form_sum,
                   make_form, monomial, monomials, multiply, parse, power,
                   render, scale)
from .apolar import (ApolarBasis, CatalecticantSlice, HilbertFunction,
                     apolar_basis, catalecticant, conciseness, hilbert,
                     is_k_concise, is_unimodal, maximal_hilbert_through)
from .hessian import (BudgetExceeded, LefschetzReport, MixedHessian,
                      RankPolicy, RankReport, evaluated_rank, generic_rank,
                      hessian_determinant, lefschetz_check,
                      lefschetz_property, mixed_hessian,
                      multiplication_map_rank)
from .powersum import (PowerSumDecomposition, VeroneseMatrix,
                       binary_waring_rank, factorization_check,
                       hessian_nonvanishing, is_squarefree_binary,
                       verify_decomposition)
from .bounds import (BorderBound, CactusLowerBound, CertificateStrategy,
                     border_bound_bihomogeneous, border_bound_monomial,
                     border_upper, cactus_lower_degenerate,
                     cactus_lower_vanishing, generic_waring_rank,
                     slice_rank_vanishing, wild_certificate)
from .families import (FamilyResult, build, family_info, family_names,
                       generic_linear_forms, gn_quartic_bounds,
                       power_family_bounds)

__all__ = [name for name in dir() if not name.startswith("_")]
