import importlib

import gelfond
import oracles

# cross-check routes, importable from their submodules or tests/oracles.py only
ORACLE_NAMES = {
    "divided_difference", "exponential_dd", "exponential_dd_naive",
    "exponential_dd_recursive", "gelfond_basis_dd", "gelfond_basis_schur",
    "interlacing_partitions", "schur_giambelli", "schur_nagelsbach_kostka",
    "schur_tableaux", "skew_schur", "splitting_limit",
}


def test_every_exported_name_resolves():
    assert len(gelfond.__all__) == len(set(gelfond.__all__))
    for name in gelfond.__all__:
        assert getattr(gelfond, name) is not None, name


def test_oracles_are_not_exported():
    assert not ORACLE_NAMES & set(gelfond.__all__)


# routes only tests use, now in tests/oracles.py, and names deleted with
# no caller left, by the module (or class) that used to hold them
MOVED_OR_DELETED = {
    "gelfond.schur": (
        "complete_homogeneous", "elementary", "_elementary_table",
        "schur_nagelsbach_kostka", "hook_schur", "schur_giambelli",
        "schur_tableaux", "skew_schur", "skew_schur_tableaux",
        "branch_last_variable_skew", "split_partition", "splitting_limit",
        "branch_last_variable", "schur_jacobi_trudi", "_complete_table"),
    "gelfond.divided_diff": (
        "divided_difference", "exponential_dd_shifted",
        "exponential_dd_derivative", "exponential_dd_table", "exponential_dd",
        "exponential_dd_naive", "exponential_dd_recursive", "_check_t",
        "MIN_GAP", "opitz_table", "_exp_last_column", "_taylor_terms",
        "_checked_nodes", "BLOCK_ROWS"),
    "gelfond.gelfond_basis": (
        "elementary_basis_polynomial", "complete_basis_polynomial",
        "hook_basis_polynomial", "_bernstein_poly", "vanishing_orders",
        "basis_polynomial_residues", "gelfond_basis_dd"),
    "gelfond.partitions": (
        "hook_dimension", "hook_partition_dimension", "pairwise_dimension",
        "interlacing_partitions"),
    "gelfond.curves": ("hyperplane_crossings",),
    "gelfond.blossom": (
        "monomial_blossom", "blossom_value", "coefficients_from_control_points",
        "control_points_from_coefficients"),
}
MOVED_METHODS = {
    "IntegerPartition": ("conjugate", "hooks", "contents", "contains",
                         "frobenius", "from_frobenius"),
    "GelfondBezierCurve": ("left_segment", "coefficients"),
}


def test_test_only_routes_left_the_package():
    for module, names in MOVED_OR_DELETED.items():
        mod = importlib.import_module(module)
        for name in names:
            assert not hasattr(mod, name), (module, name)
    for cls, names in MOVED_METHODS.items():
        for name in names:
            assert not hasattr(getattr(gelfond, cls), name), (cls, name)


def test_test_oracles_are_not_exported():
    defined = {name for name, obj in vars(oracles).items()
               if getattr(obj, "__module__", None) == oracles.__name__}
    assert "schur_giambelli" in defined
    assert not defined & set(gelfond.__all__)
