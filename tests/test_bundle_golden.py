"""A rewrite of the Witten bundle factors never changes a bundle: stored digests.

`verify_all.json` pins only the identity-degree components of the bundles,
through the checks that read them.  This file pins every form degree and
both kinds: the sha256 of `build_theta_bundle(kind, profile, order2)
.series.to_obj()` as compact JSON, for the identity profiles of dims 1-11
that are not 0 mod 4 at the class order 2m+5, plus RootProfile(3, 12) and
RootProfile(7, 12) at order2 9, which carry form degrees past their
identity degree (RootProfile(7, 8) at order2 7 is dim 7's identity case).  Print the table with
`PYTHONPATH=src python tests/test_bundle_golden.py` only for a deliberate
change of the bundles, and say why in the change log.
"""

import hashlib
import json

import pytest

from anomform.anomaly import identity_profile
from anomform.chroot import RootProfile
from anomform.modforms import identity_parameters
from anomform.witten import THETA1, THETA2, build_theta_bundle, default_theta_order2

# (kind, fiber_dim, max_form_degree, order2) -> sha256 of the series' to_obj()
DIGESTS = {
    ("theta1", 1, 4, 5): "d2e750fba382baac9baff4ccb2b4c67c47f04530ed1539bceddf6f5b1c5a8dff",
    ("theta2", 1, 4, 5): "d2e750fba382baac9baff4ccb2b4c67c47f04530ed1539bceddf6f5b1c5a8dff",
    ("theta1", 2, 4, 5): "c0cf43c91270e7c9a5b548f5fa8b47a8a24b3b8fc57cb050a30092b6989c703a",
    ("theta2", 2, 4, 5): "3b29756666e36b136cb5ced9815eaafb17f78a2ee82bc80a5160cbfaed9c6a8d",
    ("theta1", 3, 4, 5): "c0cf43c91270e7c9a5b548f5fa8b47a8a24b3b8fc57cb050a30092b6989c703a",
    ("theta2", 3, 4, 5): "3b29756666e36b136cb5ced9815eaafb17f78a2ee82bc80a5160cbfaed9c6a8d",
    ("theta1", 5, 8, 7): "1e1cd2360d3b61f0a98a7dfce6506a72d7253fa610af32600c78faaa818508d7",
    ("theta2", 5, 8, 7): "b1ef6da8dc3e2238606bd9fd7296d3e4e3d06fb7c36484e130013b9e9cdf27c0",
    ("theta1", 6, 8, 7): "1e1cd2360d3b61f0a98a7dfce6506a72d7253fa610af32600c78faaa818508d7",
    ("theta2", 6, 8, 7): "b1ef6da8dc3e2238606bd9fd7296d3e4e3d06fb7c36484e130013b9e9cdf27c0",
    ("theta1", 7, 8, 7): "1e1cd2360d3b61f0a98a7dfce6506a72d7253fa610af32600c78faaa818508d7",
    ("theta2", 7, 8, 7): "b1ef6da8dc3e2238606bd9fd7296d3e4e3d06fb7c36484e130013b9e9cdf27c0",
    ("theta1", 9, 12, 7): "1e1a08a25bfa78d867840f715c51feb404365477a01cc5cd83ed09ebdbd5f915",
    ("theta2", 9, 12, 7): "bc92f4c30df53c3e1c5011edfb98f4be3739458f072b6a06e77c9dc79f14a701",
    ("theta1", 10, 12, 7): "1e1a08a25bfa78d867840f715c51feb404365477a01cc5cd83ed09ebdbd5f915",
    ("theta2", 10, 12, 7): "bc92f4c30df53c3e1c5011edfb98f4be3739458f072b6a06e77c9dc79f14a701",
    ("theta1", 11, 12, 7): "1e1a08a25bfa78d867840f715c51feb404365477a01cc5cd83ed09ebdbd5f915",
    ("theta2", 11, 12, 7): "bc92f4c30df53c3e1c5011edfb98f4be3739458f072b6a06e77c9dc79f14a701",
    ("theta1", 3, 12, 9): "8be3e325bc5705a4138cef7caa24a6096c591823c75b00fa183da2ec44d71468",
    ("theta2", 3, 12, 9): "d2ffa1c293862003913c44bfee5e10243fab2d85bb08e68b58d33ae501f4e56f",
    ("theta1", 7, 12, 9): "2f788b3bc299137a21f196ccae35b7472aaa4021d0de739fb741368203d990ce",
    ("theta2", 7, 12, 9): "7a88559f8eb430d7aef47388f3c15089fbe08061b2b26cc0883339dfab82427a",
}


def golden_cases():
    """(kind, profile, order2) for every stored digest, in table order."""
    profiles = []
    for dim in (1, 2, 3, 5, 6, 7, 9, 10, 11):
        _, m, _ = identity_parameters(dim)
        profiles.append((identity_profile(dim), default_theta_order2(m)))
    profiles += [(RootProfile(3, 12), 9), (RootProfile(7, 12), 9)]
    return [(kind, profile, order2) for profile, order2 in profiles for kind in (THETA1, THETA2)]


def bundle_digest(kind, profile, order2) -> str:
    obj = build_theta_bundle(kind, profile, order2).series.to_obj()
    return hashlib.sha256(json.dumps(obj, separators=(",", ":")).encode()).hexdigest()


def _key(kind, profile, order2):
    return (kind, profile.fiber_dim, profile.max_form_degree, order2)


def test_table_covers_the_cases():
    assert sorted(DIGESTS) == sorted(_key(*case) for case in golden_cases())


@pytest.mark.parametrize(
    "case", golden_cases(), ids=lambda case: "{}-dim{}-deg{}-order{}".format(*_key(*case))
)
def test_bundle_series_match_stored_digest(case):
    assert bundle_digest(*case) == DIGESTS[_key(*case)]


if __name__ == "__main__":
    for case in golden_cases():
        kind, dim, degree, order2 = _key(*case)
        print(f'    ("{kind}", {dim}, {degree}, {order2}): "{bundle_digest(*case)}",')
