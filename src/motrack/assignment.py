"""Gated optimal bipartite matching between detections and tracklets."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment


@dataclass(frozen=True)
class Assignment:
    """Result of a gated matching: matched index pairs plus leftovers.

    ``matches`` is a (k, 2) array of (row, column) pairs in row order; the
    unmatched fields are ascending index arrays. Each detection/tracklet index
    appears in at most one match; matches and the unmatched sets partition both
    index ranges, and every matched pair scored at least the gate.
    """

    matches: np.ndarray
    unmatched_detections: np.ndarray
    unmatched_tracklets: np.ndarray


def solve_assignment(sim: np.ndarray, gate: float | np.ndarray) -> Assignment:
    """Maximize total similarity over matchings whose pairs all reach the gate.

    Args:
        sim: M x N similarity scores (finite entries).
        gate: minimum admissible similarity; a scalar or an array broadcastable
            to the matrix shape (entries gated at +inf are never matched).

    Returns:
        The optimal gated assignment. Leaving a pair unmatched contributes
        zero, so only pairs that raise the total are matched; ties resolve
        deterministically for fixed inputs. An empty matrix matches nothing.
        When no row and no column holds two admissible pairs and every
        admissible value is positive, those pairs are the unique optimum and
        are returned without running the solver.
    """
    values = np.asarray(sim, dtype=float)
    if values.ndim != 2:
        raise ValueError(f"similarity matrix must be 2-D, got shape {values.shape}")
    n_rows, n_cols = values.shape
    if n_rows == 0 or n_cols == 0:
        return _solve(values, np.zeros(values.shape, dtype=bool))
    if not np.all(np.isfinite(values)):
        raise ValueError("similarity matrix entries must be finite")

    admissible = values >= np.asarray(gate, dtype=float)
    if admissible.shape != values.shape:
        raise ValueError(f"gate of shape {np.shape(gate)} does not broadcast to {values.shape}")
    return _solve(values, admissible)


def _solve(values: np.ndarray, admissible: np.ndarray) -> Assignment:
    """solve_assignment on checked input: finite values and their admissible mask.

    A conflict-free table, where no row and no column holds two admissible
    pairs and every admissible value is > 0, is matched by exactly its
    admissible pairs: each raises the total and none excludes another. Any
    other table, zero-valued admissible pairs included, goes to the solver,
    so ties resolve as the solver resolves them.
    """
    rows, cols = admissible.nonzero()  # rows ascending, so a repeated row is adjacent
    if len(rows) and not (
        (rows[1:] != rows[:-1]).all()
        and np.bincount(cols).max() == 1
        and (values[rows, cols] > 0.0).all()
    ):
        # Negative and inadmissible pairs are worth no more than leaving both
        # sides unmatched, so they weigh 0 and are dropped from the solution:
        # what is kept is a maximum-total matching of admissible pairs.
        rows, cols = linear_sum_assignment(
            np.where(admissible, np.maximum(values, 0.0), 0.0), maximize=True
        )
        keep = admissible[rows, cols] & (values[rows, cols] >= 0.0)
        rows, cols = rows[keep], cols[keep]
    matched_rows = np.zeros(len(values), dtype=bool)
    matched_rows[rows] = True
    matched_cols = np.zeros(values.shape[1], dtype=bool)
    matched_cols[cols] = True
    return Assignment(np.array((rows, cols)).T, (~matched_rows).nonzero()[0],
                      (~matched_cols).nonzero()[0])
