import pytest

# The long acceptance runs.  They are marked here because the acceptance
# module itself stays as the gate was written.
SLOW_TESTS = {
    "test_criterion_5_synthetic_overfitting_study",
    "test_criterion_6_ettm2_univariate",
    "test_criterion_7_deterministic_reruns",
}


def pytest_collection_modifyitems(items):
    for item in items:
        if item.name in SLOW_TESTS:
            item.add_marker(pytest.mark.slow)
