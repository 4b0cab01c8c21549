import tuplebn
from tuplebn import estimation, experiment, model, oracle, recovery, vcbounds

MODULES = (model, oracle, estimation, recovery, vcbounds, experiment)

# Wrappers and test-only helpers that the one decision path
# (ProviderCiDecider over ExactMarginalProvider / EmpiricalMarginalProvider)
# replaced, the readers of output-only JSON (frequency, witness) with the
# parameter bundle only required_sample_size built, and the separate DAG
# validation layer that the DiscreteDag constructor replaced.
REMOVED = (
    "BoundInputs",
    "MarginalTable",
    "ValidationReport",
    "conditional_independent",
    "empirical_ci_test",
    "empirical_provider",
    "exact_provider",
    "frequencies_from_dict",
    "load_frequencies",
    "load_trial_reports",
    "load_witness",
    "markov_parents",
    "minimize_parent_set",
    "mixed_radix_strides",
    "require_valid",
    "validate_dag",
    "witness_from_dict",
)


def test_every_exported_name_resolves_once():
    assert len(set(tuplebn.__all__)) == len(tuplebn.__all__)
    missing = [name for name in tuplebn.__all__ if not hasattr(tuplebn, name)]
    assert missing == []


def test_star_import():
    namespace = {}
    exec("from tuplebn import *", namespace)
    assert set(tuplebn.__all__) <= set(namespace)


def test_removed_names_are_not_exported():
    assert [name for name in REMOVED if name in tuplebn.__all__ or hasattr(tuplebn, name)] == []


def test_each_module_declares_its_public_names_once():
    for module in MODULES:
        assert [name for name in module.__all__ if not hasattr(module, name)] == [], module.__name__
    names = [name for module in MODULES for name in module.__all__]
    assert len(set(names)) == len(names)
    assert tuplebn.__all__ == ["BACKEND", "__version__", *names]
    assert all(getattr(tuplebn, name) is getattr(module, name) for module in MODULES for name in module.__all__)
