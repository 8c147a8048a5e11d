"""Unit tests for the interest matrix wrapper (repro.core.interest)."""

import numpy as np
import pytest

from repro.core.errors import InstanceValidationError
from repro.core.interest import InterestMatrix


class TestConstruction:
    def test_basic(self):
        matrix = InterestMatrix(np.array([[0.1, 0.9], [0.5, 0.0]]))
        assert matrix.shape == (2, 2)
        assert matrix.num_users == 2
        assert matrix.num_items == 2

    def test_copies_input_by_default(self):
        source = np.array([[0.5]])
        matrix = InterestMatrix(source)
        source[0, 0] = 0.9
        assert matrix.value(0, 0) == pytest.approx(0.5)

    def test_rejects_out_of_range_values(self):
        with pytest.raises(InstanceValidationError, match=r"\[0, 1\]"):
            InterestMatrix(np.array([[1.5]]))
        with pytest.raises(InstanceValidationError, match=r"\[0, 1\]"):
            InterestMatrix(np.array([[-0.1]]))

    def test_rejects_nan(self):
        with pytest.raises(InstanceValidationError, match=r"\[0, 1\]"):
            InterestMatrix(np.array([[np.nan, 0.1], [0.2, 0.3]]))

    @pytest.mark.parametrize("storage", ["dense", "sparse"])
    def test_from_entries_rejects_nan(self, storage):
        with pytest.raises(InstanceValidationError, match=r"\[0, 1\]"):
            InterestMatrix.from_entries(2, 2, [(0, 1, np.nan)], storage=storage)

    @pytest.mark.parametrize("storage", ["dense", "sparse"])
    def test_updates_reject_nan(self, storage):
        matrix = InterestMatrix(np.array([[0.1, 0.9], [0.5, 0.0]])).with_storage(storage)
        with pytest.raises(InstanceValidationError, match=r"\[0, 1\]"):
            matrix.with_entries([(0, 1, 0.4), (1, 0, np.nan)])
        with pytest.raises(InstanceValidationError, match=r"\[0, 1\]"):
            matrix.with_appended_items(np.array([[0.5], [np.nan]]))

    def test_rejects_wrong_dimensionality(self):
        with pytest.raises(InstanceValidationError, match="2-dimensional"):
            InterestMatrix(np.array([0.1, 0.2]))

    def test_zeros_constructor(self):
        matrix = InterestMatrix.zeros(3, 4)
        assert matrix.shape == (3, 4)
        assert matrix.mean() == 0.0

    def test_from_entries(self):
        matrix = InterestMatrix.from_entries(2, 3, [(0, 1, 0.7), (1, 2, 0.4)])
        assert matrix.value(0, 1) == pytest.approx(0.7)
        assert matrix.value(1, 2) == pytest.approx(0.4)
        assert matrix.value(0, 0) == 0.0

    def test_from_entries_rejects_bad_indices(self):
        with pytest.raises(InstanceValidationError, match="user index"):
            InterestMatrix.from_entries(2, 2, [(5, 0, 0.5)])
        with pytest.raises(InstanceValidationError, match="item index"):
            InterestMatrix.from_entries(2, 2, [(0, 7, 0.5)])

    def test_from_dict(self):
        matrix = InterestMatrix.from_dict(2, 2, {(0, 0): 0.3, (1, 1): 0.8})
        assert matrix.value(0, 0) == pytest.approx(0.3)
        assert matrix.value(1, 1) == pytest.approx(0.8)


class TestAccessors:
    def test_column_and_row_are_views(self):
        matrix = InterestMatrix(np.array([[0.1, 0.2], [0.3, 0.4]]))
        column = matrix.column(1)
        np.testing.assert_allclose(column, [0.2, 0.4])
        row = matrix.row(0)
        np.testing.assert_allclose(row, [0.1, 0.2])

    def test_mean_and_density(self):
        matrix = InterestMatrix(np.array([[0.0, 0.5], [0.0, 1.0]]))
        assert matrix.mean() == pytest.approx(0.375)
        assert matrix.density() == pytest.approx(0.5)
        assert matrix.density(threshold=0.6) == pytest.approx(0.25)

    def test_empty_matrix_statistics(self):
        matrix = InterestMatrix.zeros(0, 0)
        assert matrix.mean() == 0.0
        assert matrix.density() == 0.0


class TestSerialisation:
    def test_round_trip(self):
        original = InterestMatrix(np.array([[0.25, 0.75], [0.0, 1.0]]))
        restored = InterestMatrix.from_serialized(original.to_dict())
        assert restored == original

    def test_round_trip_empty_columns(self):
        original = InterestMatrix.zeros(3, 0)
        restored = InterestMatrix.from_serialized(original.to_dict())
        assert restored.shape == (3, 0)

    def test_from_serialized_rejects_shape_mismatch(self):
        payload = {"shape": [2, 3], "values": [[0.1, 0.2], [0.3, 0.4]]}
        with pytest.raises(InstanceValidationError, match="does not match"):
            InterestMatrix.from_serialized(payload)

    def test_equality_against_other_types(self):
        matrix = InterestMatrix.zeros(1, 1)
        assert (matrix == 5) is False or (matrix == 5) is NotImplemented or not (matrix == 5)
