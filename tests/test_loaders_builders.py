"""Tests for instance persistence (loaders) and the named dataset builders."""

import numpy as np
import pytest

from repro.core.errors import DatasetError
from repro.datasets.builders import build_dataset, clear_dataset_cache, dataset_names
from repro.datasets.loaders import load_instance, save_instance
from tests.conftest import make_random_instance


class TestLoaders:
    def test_json_round_trip(self, tmp_path):
        instance = make_random_instance(seed=2, num_users=8, num_events=5, num_intervals=3)
        path = save_instance(instance, tmp_path / "instance.json")
        restored = load_instance(path)
        np.testing.assert_allclose(restored.interest.values, instance.interest.values)
        np.testing.assert_allclose(restored.activity, instance.activity)
        assert restored.available_resources == instance.available_resources
        assert [e.id for e in restored.events] == [e.id for e in instance.events]

    def test_npz_round_trip(self, tmp_path):
        instance = make_random_instance(seed=3, num_users=10, num_events=6, num_intervals=4)
        path = save_instance(instance, tmp_path / "instance.npz")
        restored = load_instance(path)
        np.testing.assert_allclose(restored.interest.values, instance.interest.values)
        np.testing.assert_allclose(restored.competing_sums, instance.competing_sums)
        assert restored.name == instance.name

    def test_npz_load_keeps_arrays(self, tmp_path, monkeypatch):
        """The NPZ fast path must hand ndarrays to from_dict, never Python lists.

        The regression: ``_load_npz`` used to ``.tolist()`` every matrix and
        rebuild it element-by-element, defeating the whole point of the binary
        format on benchmark-scale instances.
        """
        from repro.core.instance import SESInstance

        instance = make_random_instance(
            seed=7, num_users=12, num_events=7, num_intervals=3, num_competing=4
        )
        path = save_instance(instance, tmp_path / "instance.npz")

        seen = {}
        original = SESInstance.from_dict.__func__

        def spy(cls, payload):
            seen["interest"] = payload["interest"]["values"]
            seen["competing"] = payload["competing_interest"]["values"]
            seen["activity"] = payload["activity"]
            return original(cls, payload)

        monkeypatch.setattr(SESInstance, "from_dict", classmethod(spy))
        restored = load_instance(path)

        for key in ("interest", "competing", "activity"):
            assert isinstance(seen[key], np.ndarray), f"{key} was materialised as a list"
            assert seen[key].dtype == np.float64
        assert seen["interest"].shape == instance.interest.shape
        assert seen["activity"].shape == instance.activity.shape
        # Round-trip equality stays exact (NPZ stores the float64 bits).
        assert np.array_equal(restored.interest.values, instance.interest.values)
        assert np.array_equal(
            restored.competing_interest.values, instance.competing_interest.values
        )
        assert np.array_equal(restored.activity, instance.activity)
        # The interest matrices adopt the loaded arrays without copying.
        assert restored.interest.values is seen["interest"]

    def test_round_trip_preserves_solver_behaviour(self, tmp_path):
        from repro.algorithms.registry import run_scheduler

        instance = make_random_instance(seed=4, num_users=20, num_events=8, num_intervals=3)
        path = save_instance(instance, tmp_path / "inst.json")
        restored = load_instance(path)
        original = run_scheduler("ALG", instance, 4)
        reloaded = run_scheduler("ALG", restored, 4)
        assert original.schedule == reloaded.schedule
        assert original.utility == pytest.approx(reloaded.utility, rel=1e-12)

    def test_unsupported_extension(self, tmp_path):
        instance = make_random_instance(seed=5, num_users=4, num_events=3, num_intervals=2)
        with pytest.raises(DatasetError, match="unsupported"):
            save_instance(instance, tmp_path / "instance.csv")
        with pytest.raises(DatasetError, match="unsupported"):
            load_instance(tmp_path / "whatever.txt")

    def test_missing_file(self, tmp_path):
        with pytest.raises(DatasetError, match="not found"):
            load_instance(tmp_path / "missing.json")

    def test_creates_parent_directories(self, tmp_path):
        instance = make_random_instance(seed=6, num_users=4, num_events=3, num_intervals=2)
        path = save_instance(instance, tmp_path / "nested" / "dir" / "instance.json")
        assert path.exists()


class TestBuilders:
    def test_dataset_names(self):
        names = dataset_names()
        for expected in ("Meetup", "Concerts", "Unf", "Zip"):
            assert expected in names

    @pytest.mark.parametrize("name", ["Unf", "Zip", "Nrm"])
    def test_synthetic_families(self, name):
        instance = build_dataset(name, num_users=30, num_events=10, num_intervals=4, seed=1)
        assert instance.name == name
        assert instance.num_users == 30

    def test_aliases(self):
        uniform = build_dataset("uniform", num_users=10, num_events=4, num_intervals=2, seed=0)
        assert uniform.name == "Unf"
        zipf = build_dataset("zipfian", num_users=10, num_events=4, num_intervals=2, seed=0)
        assert zipf.name == "Zip"

    def test_unknown_dataset(self):
        with pytest.raises(DatasetError, match="unknown dataset"):
            build_dataset("imaginary")

    def test_cache_returns_same_object(self):
        clear_dataset_cache()
        first = build_dataset("Unf", num_users=15, num_events=6, num_intervals=3, seed=2)
        second = build_dataset("Unf", num_users=15, num_events=6, num_intervals=3, seed=2)
        assert first is second
        third = build_dataset("Unf", num_users=15, num_events=6, num_intervals=3, seed=3)
        assert third is not first

    def test_cache_clear(self):
        first = build_dataset("Unf", num_users=15, num_events=6, num_intervals=3, seed=2)
        clear_dataset_cache()
        second = build_dataset("Unf", num_users=15, num_events=6, num_intervals=3, seed=2)
        assert first is not second

    def test_tuple_parameters_survive_json_freezing(self):
        instance = build_dataset(
            "Unf",
            num_users=20,
            num_events=8,
            num_intervals=4,
            competing_per_interval_range=(2, 3),
            seed=4,
        )
        for interval in range(instance.num_intervals):
            assert 2 <= len(instance.competing_events_at(interval)) <= 3

    def test_meetup_and_concerts_builders(self):
        meetup = build_dataset("Meetup", num_users=40, num_events=10, num_intervals=4, seed=5)
        concerts = build_dataset("Concerts", num_users=40, num_events=10, num_intervals=4, seed=5)
        assert meetup.name == "Meetup"
        assert concerts.name == "Concerts"
        assert meetup.num_users == concerts.num_users == 40
