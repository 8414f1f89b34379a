"""Exact results past m = 4 never change under a kernel rewrite: stored digests.

`verify_all.json` and the bundle digests of `test_bundle_golden.py` stop at
m = 2, and the benchmark's sweep at m = 4.  This file pins larger profiles:
the sha256 (compact JSON) of `build_theta_bundle(kind, identity_profile(d),
2m + 5).series.to_obj()` for both kinds at dims 25 and 29 (m = 3, 4), and of
`verify_decomposition_identity(d).to_obj()` and `verify_main_identity(d)
.to_obj()` at dims 41 and 49 (m = 5, 6).  Print the table with
`PYTHONPATH=src python tests/test_large_golden.py` only for a deliberate
change of these results, and say why in the change log.
"""

import hashlib
import json

import pytest

from anomform.anomaly import identity_profile, verify_decomposition_identity, verify_main_identity
from anomform.modforms import identity_parameters
from anomform.witten import THETA1, THETA2, build_theta_bundle, default_theta_order2

BUNDLE_DIGESTS = {
    ("theta1", 25): "d442014e02120b7c831a13d65a8fe81408b9d7246183f39b85f108a14bf459df",
    ("theta2", 25): "50924958348035163a74ea244712cb4aff71dca19fa951ad96781e6f084121a4",
    ("theta1", 29): "d92a4213afb93cb44725286afda58e8758b6453b18cf32d37b9e980755c21691",
    ("theta2", 29): "246b2562d629ac6066e617bcdbd95c41314813c7016fb1abb9e9fb55ed1c1e34",
}

REPORT_DIGESTS = {
    ("decomposition", 41): "0e49a60e8a3eb4d1d38872f0d7b25144a7ab44f7464a350817d2bdb58003f9fc",
    ("main", 41): "affdfa5a7e63b7e739534c6817b8bb3627343fbbcb06a71a188cc47d344a359c",
    ("decomposition", 49): "8c6257dc6474818a83a0ecfb2c6646923f7700a9ced2f2557fa2406bb700e586",
    ("main", 49): "93072e1b5f61d779935b4631d24383aec109ad814c0252c6c82b301ea6cb7134",
}

CHECKS = {"decomposition": verify_decomposition_identity, "main": verify_main_identity}


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, separators=(",", ":")).encode()).hexdigest()


def bundle_cases():
    return [(kind, dim) for dim in (25, 29) for kind in (THETA1, THETA2)]


def report_cases():
    return [(check, dim) for dim in (41, 49) for check in CHECKS]


def bundle_digest(kind, dim) -> str:
    _, m, _ = identity_parameters(dim)
    bundle = build_theta_bundle(kind, identity_profile(dim), default_theta_order2(m))
    return _digest(bundle.series.to_obj())


def report_digest(check, dim) -> str:
    return _digest(CHECKS[check](dim).to_obj())


def test_tables_cover_the_cases():
    assert sorted(BUNDLE_DIGESTS) == sorted(bundle_cases())
    assert sorted(REPORT_DIGESTS) == sorted(report_cases())


@pytest.mark.parametrize("case", bundle_cases(), ids=lambda case: "{}-dim{}".format(*case))
def test_large_bundle_matches_stored_digest(case):
    assert bundle_digest(*case) == BUNDLE_DIGESTS[case]


@pytest.mark.parametrize("case", report_cases(), ids=lambda case: "{}-dim{}".format(*case))
def test_large_report_matches_stored_digest(case):
    assert report_digest(*case) == REPORT_DIGESTS[case]


if __name__ == "__main__":
    print("BUNDLE_DIGESTS = {")
    for case in bundle_cases():
        print(f'    ("{case[0]}", {case[1]}): "{bundle_digest(*case)}",')
    print("}")
    print("REPORT_DIGESTS = {")
    for case in report_cases():
        print(f'    ("{case[0]}", {case[1]}): "{report_digest(*case)}",')
    print("}")
