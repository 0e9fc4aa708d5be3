"""Exact computer algebra for Capelli operators on the symmetric square
of the natural gl(m|n) module: central elements, Harish-Chandra
projections, invariant differential operators, eigenvalue and spherical
polynomials, and shifted super Jack interpolation polynomials."""

from .multipoly import MultiPoly, AffineSubstitution
from .linalg import mat_reduce, lin_solve
from .hooks import (HookParams, HookPartition, Weight, FrobeniusPoint,
                    enumerate_hooks, parse_partition, gamma_map,
                    gamma_star_map, dual_weight, hook_product_H,
                    classical_hook_product, frobenius_point,
                    frobenius_affine_map)
from .superlie import (Ambient, UEAElement, bracket, pbw_normalize,
                       gelfand_element, omega, hc_project, q_projection,
                       gd_element)
from .weyl import (WeylElement, weyl_mul, rho_check, rho_check_gen, t_sigma,
                   invariant_symbol_space, highest_weight_vectors,
                   capelli_operator, spherical_vector, spherical_poly,
                   symbol, gelfand_product)
from .solver import (coset_type, symbol_preimage, full_preimage,
                     central_preimage, c_poly_hc, c_poly_interp, c_star_poly,
                     ia_star_basis, deformed_power_sum, sp_basis, sp_star,
                     frobenius_transform, verify_sv, verify_main,
                     theta_one_family, natural_algebra_check)
from .cache import DiskCache, default_cache

__version__ = '0.1.0'
