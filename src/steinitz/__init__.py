"""Exact rational Steinitz rearrangement algorithms and their application
to block-structured integer programs."""

from .checks import PropertyViolation
from .linalg import Matrix, Rat, Vec, lcm_abs_dets, null_space, solve_linear
from .norms import L1, BlockMax, Linf, L1_NORM, LINF_NORM, norm_eval
from .lp import BoxLP, LPResult, enum_integer_points, extreme_rays, lp_solve, purify_to_vertex
from .rearrange import (RearrangementCertificate, VectorSequence, ZeroSumRequired,
                        max_prefix_norm, steinitz_rearrange, subspace_rearrange)
from .colorful import (BalanceResult, ColoredFamily, ColorfulCertificate, SubsetSelection,
                       balance_rows, colorful_affine, colorful_rearrange,
                       conic_caratheodory_anchor, round_to_binary, single_partial_sum)
from .blockip import (ConstantsTable, DecompositionBundle, FourBlockInstance, KernelPoint,
                      ReduceOutcome, UnboundedRelaxation,
                      decompose_bundle, decompose_u, decompose_v, decompose_x,
                      feasible_bases, cone_rays_K, graver_enumerate, kernel_bound,
                      lift_three_block, minimal_kernel_below, proximity_report,
                      reduce_kernel_point, reduce_kernel_point_signed, solve_four_block,
                      split_max_kernel)
from .oracles import (BudgetExceeded, brute_colorful_optimum, brute_ilp,
                      brute_rearrange_optimum, brute_single_sum)
from .generate import gen_four_block, gen_unit_family, gen_zero_sum_family

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
