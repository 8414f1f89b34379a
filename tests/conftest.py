"""Shared fixtures."""

from types import SimpleNamespace

import pytest

from anomform import anomaly, chroot, genera, modforms, thetanum, witten

# Every in-process memo of an exact artifact; values outlive a single call.
_MEMOS = (
    chroot.power_sums,
    chroot.power_sum_products,
    witten.theta_bundle,
    modforms._modular_basis,
    modforms._combination_matrix,
    genera._bernoulli,
    genera.a_hat,
    genera.l_class,
    anomaly.p_form,
    anomaly.identity_class,
    anomaly._decomposition,
    anomaly._corollary_class,
    SimpleNamespace(cache_clear=thetanum._PAIR_LOG_MEMO.clear),
)


def _clear_memos():
    for memo in _MEMOS:
        memo.cache_clear()


@pytest.fixture
def clear_memos():
    """Start and end the test with empty memos; call the fixture value to empty them again.

    Emptying them at the end keeps what a negative control memoised under a
    perturbation from reaching a later test.
    """
    _clear_memos()
    yield _clear_memos
    _clear_memos()
