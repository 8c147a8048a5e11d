"""Every dataset builder's exact output, pinned.

Each builder's instance is pinned by a digest of its µ, competing µ and σ
bytes plus its serialised events, intervals and metadata, so a refactor that
moves one draw of any builder's RNG stream fails here.  The digests were
captured with NumPy's PCG64 streams; the Concerts µ comes from a matrix
product, so a different BLAS could move its last bits.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.datasets.builders import build_dataset
from repro.datasets.concerts import ConcertsConfig, generate_concerts
from repro.datasets.meetup import MeetupConfig, generate_meetup
from repro.datasets.synthetic import (
    SyntheticConfig,
    generate_normal,
    generate_synthetic,
    generate_uniform,
    generate_zipfian,
)

TINY = dict(
    num_users=40,
    num_events=12,
    num_intervals=5,
    competing_per_interval_range=(1, 3),
    num_locations=4,
)


def instance_digest(instance) -> str:
    """Hash of µ, competing µ, σ and the matrix-free serialised instance."""
    digest = hashlib.sha256()
    for array in (
        instance.interest.values,
        instance.competing_interest.values,
        instance.activity,
    ):
        digest.update(np.ascontiguousarray(array, dtype=np.float64).tobytes())
    payload = instance.to_dict(include_matrices=False)
    digest.update(json.dumps(payload, default=repr).encode())
    return digest.hexdigest()[:16]


def _builds():
    builds = {}
    for distribution in ("uniform", "normal", "zipfian"):
        for seed in (0, 7, 11):
            config = SyntheticConfig(interest_distribution=distribution, seed=seed, **TINY)
            builds[f"synthetic-{distribution}-{seed}"] = (generate_synthetic, config)
    for shorthand in (generate_uniform, generate_normal, generate_zipfian):
        builds[shorthand.__name__] = (lambda build=shorthand: build(**TINY), None)
    for seed in (13, 23):
        config = MeetupConfig(seed=seed, num_groups=8, num_past_events=30, **TINY)
        builds[f"meetup-{seed}"] = (generate_meetup, config)
    for seed in (17, 31):
        for policy in ("missing_as_one", "missing_as_zero", "common_only"):
            config = ConcertsConfig(seed=seed, missing_policy=policy, **TINY)
            builds[f"concerts-{seed}-{policy}"] = (generate_concerts, config)
    for name in ("Meetup", "Concerts", "Unf", "Nrm", "Zip"):
        builds[f"build-{name}"] = (
            lambda name=name: build_dataset(
                name, num_users=40, num_events=12, num_intervals=5, seed=3
            ),
            None,
        )
    return builds


BUILDS = _builds()

DIGESTS = {
    "synthetic-uniform-0": "f877efcf710e6aed",
    "synthetic-uniform-7": "33b407c6f30503f3",
    "synthetic-uniform-11": "c52f62e9e4f10998",
    "synthetic-normal-0": "8ad159864b14d728",
    "synthetic-normal-7": "358007bcc5ff8648",
    "synthetic-normal-11": "096f5cd922aa5d8e",
    "synthetic-zipfian-0": "c54f731e51a34cad",
    "synthetic-zipfian-7": "fff725ae0a85682b",
    "synthetic-zipfian-11": "263a0b7b2c8ba086",
    "generate_uniform": "719436ce5ca3f566",
    "generate_normal": "be9f910128e38107",
    "generate_zipfian": "27c2032954b45c77",
    "meetup-13": "da48533c9cdd85a5",
    "meetup-23": "192fa9305a679a51",
    "concerts-17-missing_as_one": "01cfcd95adf44d0f",
    "concerts-17-missing_as_zero": "120649f1702c866c",
    "concerts-17-common_only": "8f0dd4035949ef1a",
    "concerts-31-missing_as_one": "d06940cf36d59396",
    "concerts-31-missing_as_zero": "c654681ae907b846",
    "concerts-31-common_only": "42682387385eb46d",
    "build-Meetup": "20b27b2e8098c742",
    "build-Concerts": "37297a446d63168e",
    "build-Unf": "7d10b4d0f9b2a085",
    "build-Nrm": "25b0e8f30c4d9fb9",
    "build-Zip": "9c12741318796444",
}


class TestPinnedBuilds:
    def test_every_build_is_pinned(self):
        assert sorted(BUILDS) == sorted(DIGESTS)

    @pytest.mark.parametrize("case", sorted(DIGESTS))
    def test_instance_digest(self, case):
        build, config = BUILDS[case]
        instance = build() if config is None else build(config)
        assert instance_digest(instance) == DIGESTS[case]
