"""Shared fixtures."""

import pytest

from anomform import anomaly, genera, modforms, witten

# Every in-process memo of an exact artifact; values outlive a single call.
_MEMOS = (
    witten.theta_bundle,
    modforms._modular_basis,
    modforms.decompose_theta2,
    genera.a_hat,
    genera.l_class,
    anomaly.p_form,
)


def _clear_memos():
    for memo in _MEMOS:
        memo.cache_clear()


@pytest.fixture
def clear_memos():
    """Start the test with empty memos; call the fixture value to empty them again."""
    _clear_memos()
    return _clear_memos
