import gelfond

# cross-check routes that stay importable from their submodules only
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
