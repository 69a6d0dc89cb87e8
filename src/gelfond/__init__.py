"""Gelfond-Bezier curves over Muntz spaces.

Bernstein-like bases for span(1, t^r1, ..., t^rn) on [0, 1], built from
Schur functions and divided differences of power functions, with the
usual curve toolkit on top: blossoms, de Casteljau evaluation,
derivatives, dimension elevation and C1 joining.
"""

from .arith import SingularityError
from .blossom import (blossom_value, coefficients_from_control_points,
                      control_points_from_coefficients, de_casteljau,
                      monomial_blossom, pseudo_affinity)
from .curves import (GelfondBezierCurve, c1_join, curve_from_json,
                     curve_to_json, endpoint_derivatives, initial_tangency)
from .dimelev import (convergence_report, corner_cutting, exponent_source,
                      insert_exponent, preset)
from .gelfond_basis import (basis_derivative, basis_polynomial, basis_values,
                            chebyshev_basis, hodograph_data)
from .partitions import (ExponentSequence, IntegerPartition, RealPartition,
                         dimension, exponents_from_partition, muntz_tableau,
                         partition_from_exponents)
from .schur import schur, schur_bialternant

__version__ = "0.1.0"

__all__ = [
    "SingularityError",
    "blossom_value", "coefficients_from_control_points",
    "control_points_from_coefficients", "de_casteljau", "monomial_blossom",
    "pseudo_affinity",
    "GelfondBezierCurve", "c1_join", "curve_from_json", "curve_to_json",
    "endpoint_derivatives", "initial_tangency",
    "convergence_report", "corner_cutting", "exponent_source",
    "insert_exponent", "preset",
    "basis_derivative", "basis_polynomial", "basis_values",
    "chebyshev_basis", "hodograph_data",
    "ExponentSequence", "IntegerPartition", "RealPartition", "dimension",
    "exponents_from_partition", "muntz_tableau", "partition_from_exponents",
    "schur", "schur_bialternant",
]
