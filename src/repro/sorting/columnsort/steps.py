"""Columnsort mathematics: shapes, permutations, and a reference sorter.

Matrix convention: records form an r x s matrix stored column-major;
"column j" is the slice of r records at column-major positions
[j*r, (j+1)*r).  Columnsort requires r >= 2(s-1)^2; our out-of-core
implementation additionally requires s % P == 0 is NOT needed (ownership
is round-robin: column j lives on node j % P) but does require r % s == 0
(so the transpose scatters each column evenly — this is also what makes
every communication step balanced) and r even (for the half-column shift).

The even steps:

* step 2 ("transpose"): entry with column-major index k moves to row-major
  index k.  With r % s == 0 this sends row i of ANY column to new column
  ``i % s`` — each column contributes exactly r/s records to every column.
* step 4 ("untranspose"): the inverse — row i of column c goes to the
  column ``(i*s + c) // r``; the records destined for each column form a
  contiguous slice of the sorted column.
* steps 6/8 (shift/unshift by r/2): realized by exchanging sorted column
  halves with the neighboring column's owner; the sorted "shifted column"
  m occupies the contiguous final positions [m*r - r/2, m*r + r/2).

Because every odd step re-sorts each column, the *order* of records within
an intermediate column is irrelevant — only the multiset routed to each
column matters.  The out-of-core passes exploit this to write one
contiguous r-record block per round ("fragmented column" layout) and read
each column back as s/P contiguous chunks.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.errors import ColumnsortShapeError

__all__ = [
    "ColumnsortPlan",
    "plan_columnsort",
    "validate_shape",
    "transpose_pieces",
    "untranspose_pieces",
    "reference_columnsort",
]


@dataclasses.dataclass(frozen=True)
class ColumnsortPlan:
    """Matrix geometry for an out-of-core columnsort run."""

    n_records: int  #: N = r * s
    r: int          #: rows (records per column)
    s: int          #: columns
    n_nodes: int    #: P; column j lives on node j % P

    @property
    def cols_per_node(self) -> int:
        return self.s // self.n_nodes

    @property
    def frag_records(self) -> int:
        """Records each column contributes to each column across a
        permutation step (r/s)."""
        return self.r // self.s

    def owner(self, column: int) -> int:
        return column % self.n_nodes


def validate_shape(n_records: int, r: int, s: int,
                   n_nodes: int) -> None:
    """Raise :class:`ColumnsortShapeError` unless (r, s) is usable."""
    if r * s != n_records:
        raise ColumnsortShapeError(
            f"r*s = {r}*{s} = {r * s} != N = {n_records}")
    if s % n_nodes != 0:
        raise ColumnsortShapeError(
            f"s = {s} must be a multiple of P = {n_nodes}")
    if s > 1 and r % s != 0:
        raise ColumnsortShapeError(
            f"r = {r} must be a multiple of s = {s} for balanced "
            "transposition")
    if r % 2 != 0:
        raise ColumnsortShapeError(f"r = {r} must be even for the "
                                   "half-column shift")
    if r < 2 * (s - 1) ** 2:
        raise ColumnsortShapeError(
            f"columnsort requires r >= 2(s-1)^2: r = {r} < "
            f"{2 * (s - 1) ** 2} for s = {s}")


def plan_columnsort(n_records: int, n_nodes: int) -> ColumnsortPlan:
    """Choose the largest legal column count s for N records on P nodes.

    Larger s means smaller columns (less memory per buffer), so we take
    the largest s = k*P satisfying all of :func:`validate_shape`.
    """
    if n_records < 2 * n_nodes:
        raise ColumnsortShapeError(
            f"cannot columnsort {n_records} records on {n_nodes} nodes "
            "(need at least 2 records per column)")
    best = None
    s = n_nodes
    while True:
        if n_records % s == 0:
            r = n_records // s
            try:
                validate_shape(n_records, r, s, n_nodes)
                best = ColumnsortPlan(n_records, r, s, n_nodes)
            except ColumnsortShapeError:
                pass
        s += n_nodes
        # once 2(s-1)^2 exceeds N/s no larger s can work
        if 2 * (s - 1) ** 2 > n_records // s:
            break
    if best is None:
        raise ColumnsortShapeError(
            f"no legal columnsort shape for N = {n_records} on "
            f"P = {n_nodes} nodes; choose N so that some s = k*P divides "
            "N with N/s a multiple of s and N/s >= 2(s-1)^2")
    return best


# ---------------------------------------------------------------------------
# piece extraction for the communication steps
# ---------------------------------------------------------------------------


def transpose_pieces(sorted_column: np.ndarray, column: int,
                     plan: ColumnsortPlan) -> list[np.ndarray]:
    """Step-2 routing: the piece of ``sorted_column`` destined for each
    column j (row i goes to column i % s).  Returns s arrays of r/s
    records each, indexed by destination column."""
    r, s = plan.r, plan.s
    if len(sorted_column) != r:
        raise ColumnsortShapeError(
            f"column has {len(sorted_column)} records, expected {r}")
    matrix = sorted_column.reshape(r // s, s)
    return [np.ascontiguousarray(matrix[:, j]) for j in range(s)]


def untranspose_pieces(sorted_column: np.ndarray, column: int,
                       plan: ColumnsortPlan) -> list[np.ndarray]:
    """Step-4 routing: row i of column c goes to column (i*s + c) // r;
    the pieces are contiguous slices.  Returns s arrays of r/s records."""
    r, s = plan.r, plan.s
    if len(sorted_column) != r:
        raise ColumnsortShapeError(
            f"column has {len(sorted_column)} records, expected {r}")
    starts = [(j * r - column + s - 1) // s for j in range(s + 1)]
    starts[0] = 0
    starts[s] = r
    return [sorted_column[starts[j]:starts[j + 1]] for j in range(s)]


# ---------------------------------------------------------------------------
# reference in-memory columnsort (for validating the math)
# ---------------------------------------------------------------------------


def reference_columnsort(keys: np.ndarray, r: int, s: int) -> np.ndarray:
    """Leighton's eight steps, literally, on a column-major key matrix.

    Used by tests as ground truth for the step permutations; returns the
    keys in sorted (column-major) order.
    """
    validate_shape(len(keys), r, s, n_nodes=1)
    mat = np.array(keys, dtype=np.uint64).reshape(s, r).T  # column-major

    def sort_columns(m):
        return np.sort(m, axis=0)

    mat = sort_columns(mat)                       # step 1
    mat = _permute_rowmajor(mat, r, s)            # step 2
    mat = sort_columns(mat)                       # step 3
    mat = _unpermute_rowmajor(mat, r, s)          # step 4
    mat = sort_columns(mat)                       # step 5
    shifted = _shift_half(mat, r, s)              # step 6
    shifted = np.sort(shifted, axis=0)            # step 7
    mat = _unshift_half(shifted, r, s)            # step 8
    return mat.T.reshape(-1)                      # column-major order


def _permute_rowmajor(mat: np.ndarray, r: int, s: int) -> np.ndarray:
    """column-major index k -> row-major index k (step 2)."""
    flat_cm = mat.T.reshape(-1)           # entries in column-major order
    return flat_cm.reshape(r, s)          # laid down row-major


def _unpermute_rowmajor(mat: np.ndarray, r: int, s: int) -> np.ndarray:
    """row-major index k -> column-major index k (step 4)."""
    flat_rm = mat.reshape(-1)             # entries in row-major order
    return flat_rm.reshape(s, r).T        # laid down column-major


def _shift_half(mat: np.ndarray, r: int, s: int) -> np.ndarray:
    """Step 6: shift down r/2 into an r x (s+1) matrix with -inf/+inf."""
    half = r // 2
    lo = np.uint64(0)
    hi = np.uint64(np.iinfo(np.uint64).max)
    out = np.empty((r, s + 1), dtype=np.uint64)
    out[:half, 0] = lo
    out[half:, 0] = mat[:half, 0]
    for m in range(1, s):
        out[:half, m] = mat[half:, m - 1]
        out[half:, m] = mat[:half, m]
    out[:half, s] = mat[half:, s - 1]
    out[half:, s] = hi
    return out


def _unshift_half(shifted: np.ndarray, r: int, s: int) -> np.ndarray:
    """Step 8: inverse of step 6 (boundary sentinels drop out)."""
    half = r // 2
    out = np.empty((r, s), dtype=np.uint64)
    for m in range(s):
        out[:half, m] = shifted[half:, m]       # shifted col m, lower part
        out[half:, m] = shifted[:half, m + 1]   # shifted col m+1, upper
    return out
