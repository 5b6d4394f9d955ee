"""Geometry-preserving pruning of bottleneck adapter layers."""

from .adapter import (AdapterLayer, forward, merge_bias, node_generators, split_pos_neg,
                      tropical_parts)
from .geometry import (Polytope2D, Zonotope, convex_hull_2d, dual_subdivision_points,
                       hausdorff_distance, minkowski_sum, project_generators,
                       zonotope_vertices)
from .harness import (SweepRecord, SyntheticTask, TinyModel, evaluate, generate_task,
                      init_model, sweep, train)
from .optimizer import OptimConfig, OptimResult, branch_loss, objective_value, run, subgradient
from .strategies import (PruneMask, PruneScope, apply_mask, combined_select, standard_mask,
                         tropical_mask)
from .tropical import (BOTTOM, TropicalMonomial, TropicalPolynomial, dominant_monomials,
                       is_bottom, monomial_eval, newton_points, poly_eval, trop_add,
                       trop_mul, trop_poly_mul)

__version__ = "0.1.0"

__all__ = [
    "AdapterLayer", "BOTTOM", "OptimConfig", "OptimResult",
    "Polytope2D", "PruneMask", "PruneScope", "SweepRecord",
    "SyntheticTask", "TinyModel", "TropicalMonomial", "TropicalPolynomial",
    "Zonotope", "apply_mask", "branch_loss", "combined_select",
    "convex_hull_2d", "dominant_monomials", "dual_subdivision_points", "evaluate",
    "forward", "generate_task", "hausdorff_distance", "init_model", "is_bottom",
    "merge_bias", "minkowski_sum", "monomial_eval", "newton_points", "node_generators",
    "objective_value", "poly_eval", "project_generators", "run",
    "split_pos_neg", "standard_mask", "subgradient", "sweep", "train", "trop_add",
    "trop_mul", "trop_poly_mul", "tropical_mask", "tropical_parts", "zonotope_vertices",
]
