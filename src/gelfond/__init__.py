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
                     curve_to_json, derivative_curve, endpoint_derivatives,
                     initial_tangency)
from .dimelev import (convergence_report, corner_cutting, exponent_source,
                      insert_exponent, preset)
from .divided_diff import (divided_difference, exponential_dd,
                           exponential_dd_naive, exponential_dd_recursive)
from .gelfond_basis import (basis_derivative, basis_polynomial, basis_values,
                            basis_values_many, chebyshev_basis,
                            gelfond_basis_dd, gelfond_basis_schur,
                            hodograph_data)
from .partitions import (ExponentSequence, IntegerPartition, RealPartition,
                         dimension, exponents_from_partition,
                         interlacing_partitions, muntz_tableau,
                         partition_from_exponents)
from .schur import (schur, schur_bialternant, schur_giambelli,
                    schur_jacobi_trudi, schur_nagelsbach_kostka,
                    schur_tableaux, skew_schur, splitting_limit)

__version__ = "0.1.0"

__all__ = [
    "SingularityError",
    "blossom_value", "coefficients_from_control_points",
    "control_points_from_coefficients", "de_casteljau", "monomial_blossom",
    "pseudo_affinity",
    "GelfondBezierCurve", "c1_join", "curve_from_json", "curve_to_json",
    "derivative_curve", "endpoint_derivatives", "initial_tangency",
    "convergence_report", "corner_cutting", "exponent_source",
    "insert_exponent", "preset",
    "divided_difference", "exponential_dd", "exponential_dd_naive",
    "exponential_dd_recursive",
    "basis_derivative", "basis_polynomial", "basis_values",
    "basis_values_many", "chebyshev_basis", "gelfond_basis_dd",
    "gelfond_basis_schur", "hodograph_data",
    "ExponentSequence", "IntegerPartition", "RealPartition", "dimension",
    "exponents_from_partition", "interlacing_partitions", "muntz_tableau",
    "partition_from_exponents",
    "schur", "schur_bialternant", "schur_giambelli", "schur_jacobi_trudi",
    "schur_nagelsbach_kostka", "schur_tableaux", "skew_schur",
    "splitting_limit",
]
