"""Tests for the columnsort mathematics (shapes, steps, piece routing)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ColumnsortShapeError
from repro.sorting.columnsort.steps import (
    ColumnsortPlan,
    plan_columnsort,
    reference_columnsort,
    transpose_pieces,
    untranspose_pieces,
    validate_shape,
)


def test_reference_columnsort_sorts():
    rng = np.random.default_rng(0)
    r, s = 32, 4  # r >= 2(s-1)^2 = 18, r % s == 0
    keys = rng.integers(0, 1000, size=r * s).astype(np.uint64)
    out = reference_columnsort(keys, r, s)
    np.testing.assert_array_equal(out, np.sort(keys))


def test_reference_columnsort_with_ties():
    r, s = 32, 4
    keys = np.array([5] * 64 + [3] * 32 + [9] * 32, dtype=np.uint64)
    out = reference_columnsort(keys, r, s)
    np.testing.assert_array_equal(out, np.sort(keys))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**32),
       st.sampled_from([(8, 2), (32, 4), (128, 4), (72, 6)]))
def test_property_reference_columnsort(seed, shape):
    r, s = shape
    rng = np.random.default_rng(seed)
    keys = rng.integers(0, 50, size=r * s).astype(np.uint64)
    out = reference_columnsort(keys, r, s)
    np.testing.assert_array_equal(out, np.sort(keys))


def test_validate_shape_rules():
    validate_shape(128, 32, 4, 2)
    with pytest.raises(ColumnsortShapeError):
        validate_shape(128, 16, 4, 2)    # r*s != N
    with pytest.raises(ColumnsortShapeError):
        validate_shape(128, 32, 4, 3)    # s not multiple of P
    with pytest.raises(ColumnsortShapeError):
        validate_shape(72, 18, 4, 2)     # r % s != 0
    with pytest.raises(ColumnsortShapeError):
        validate_shape(18, 9, 2, 2)      # r odd
    with pytest.raises(ColumnsortShapeError):
        validate_shape(64, 8, 8, 2)      # r < 2(s-1)^2


def test_plan_columnsort_picks_largest_legal_s():
    plan = plan_columnsort(2**22, 16)
    assert plan.s == 128
    assert plan.r == 2**22 // 128
    validate_shape(plan.n_records, plan.r, plan.s, plan.n_nodes)


def test_plan_columnsort_small_cases():
    plan = plan_columnsort(128, 2)
    validate_shape(128, plan.r, plan.s, 2)
    assert plan.owner(plan.s - 1) == (plan.s - 1) % 2
    assert plan.cols_per_node * 2 == plan.s


def test_plan_columnsort_impossible():
    with pytest.raises(ColumnsortShapeError):
        plan_columnsort(3, 2)
    with pytest.raises(ColumnsortShapeError):
        plan_columnsort(2**10 + 1, 2)  # odd prime-ish, no divisor works


def test_transpose_pieces_balanced_and_complete():
    plan = ColumnsortPlan(n_records=128, r=32, s=4, n_nodes=2)
    col = np.arange(32, dtype=np.uint64)
    pieces = transpose_pieces(col, column=1, plan=plan)
    assert len(pieces) == 4
    assert all(len(p) == 8 for p in pieces)
    # row i goes to column i % s
    np.testing.assert_array_equal(pieces[1], np.arange(1, 32, 4))
    # pieces partition the column
    np.testing.assert_array_equal(np.sort(np.concatenate(pieces)), col)


def test_untranspose_pieces_contiguous_and_complete():
    plan = ColumnsortPlan(n_records=128, r=32, s=4, n_nodes=2)
    col = np.arange(32, dtype=np.uint64)
    for c in range(4):
        pieces = untranspose_pieces(col, column=c, plan=plan)
        assert len(pieces) == 4
        assert sum(len(p) for p in pieces) == 32
        assert all(len(p) == 8 for p in pieces)
        np.testing.assert_array_equal(np.concatenate(pieces), col)
        # routing matches the formula j = (i*s + c) // r
        i = 0
        for j, piece in enumerate(pieces):
            for _ in range(len(piece)):
                assert (i * 4 + c) // 32 == j
                i += 1


def test_piece_functions_reject_wrong_length():
    plan = ColumnsortPlan(n_records=128, r=32, s=4, n_nodes=2)
    with pytest.raises(ColumnsortShapeError):
        transpose_pieces(np.arange(31, dtype=np.uint64), 0, plan)
    with pytest.raises(ColumnsortShapeError):
        untranspose_pieces(np.arange(33, dtype=np.uint64), 0, plan)


def test_plan_geometry_helpers():
    plan = ColumnsortPlan(n_records=256, r=64, s=4, n_nodes=2)
    assert plan.cols_per_node == 2
    assert plan.frag_records == 16
    assert [plan.owner(j) for j in range(4)] == [0, 1, 0, 1]
