"""Percent-error statistics and the shipped benchmark tables."""

from __future__ import annotations

import numpy as np
import pytest

from helpers import load_table
from psrelief.stats import compare


def test_single_cell_error():
    result = compare(np.array([[16.10]]), np.array([[17.48]]))
    assert result.max == pytest.approx(7.89, abs=0.005)


def test_identical_matrices_are_zero():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    result = compare(a, a.copy())
    assert result.average == 0.0 and result.median == 0.0 and result.max == 0.0


def test_case_study_statistics():
    result = compare(load_table("katrina_psystem.csv"), load_table("katrina_reference.csv"))
    assert result.scored_cells == 30
    assert result.average == pytest.approx(1.98, abs=0.01)
    assert result.median == pytest.approx(0.82, abs=0.01)
    assert result.max == pytest.approx(7.89, abs=0.01)
    # only four cells above five percent
    assert int(np.count_nonzero(result.per_cell > 5.0)) == 4


def test_benchmark_tables_round_to_reference():
    # published runs agree with the rounded reference to half a unit in the
    # last reference digit
    for idx in (1, 2, 3, 4):
        cand = load_table(f"example{idx}_psystem.csv")
        ref = load_table(f"example{idx}_reference.csv")
        assert cand.shape == ref.shape
        assert np.max(np.abs(cand - ref)) < 0.051


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError, match="shape mismatch"):
        compare(np.zeros((2, 2)), np.zeros((2, 3)))


def test_zero_reference_cells_excluded_and_reported():
    cand = np.array([[1.0, 2.0]])
    ref = np.array([[0.0, 4.0]])
    result = compare(cand, ref)
    assert result.excluded_zero_reference == [(0, 1 - 1)]
    assert result.scored_cells == 1
    assert result.max == pytest.approx(50.0)


def test_reference_is_denominator_not_symmetric():
    a = np.array([[2.0]])
    b = np.array([[4.0]])
    assert compare(a, b).max == pytest.approx(50.0)
    assert compare(b, a).max == pytest.approx(100.0)


def test_all_zero_reference_is_error():
    with pytest.raises(ValueError, match="no scorable cells"):
        compare(np.ones((1, 1)), np.zeros((1, 1)))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cell_error_past_the_float_range_is_error():
    with pytest.raises(ValueError, match=r"^percent error of cell k=2, l=1 is not finite$"):
        compare(np.array([[1.0], [1e300]]), np.array([[1.0], [1e-300]]))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_aggregate_past_the_float_range_is_error():
    # each cell error is 1e308, finite; their sum is not
    with pytest.raises(ValueError, match=r"^average percent error is not finite$"):
        compare(np.array([[1e306, 1e306]]), np.array([[1.0, 1.0]]))
