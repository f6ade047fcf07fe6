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


def _empty_assignment(n_rows: int, n_cols: int) -> Assignment:
    return Assignment(np.zeros((0, 2), dtype=np.intp), np.arange(n_rows, dtype=np.intp),
                      np.arange(n_cols, dtype=np.intp))


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
    """
    values = np.asarray(sim, dtype=float)
    if values.ndim != 2:
        raise ValueError(f"similarity matrix must be 2-D, got shape {values.shape}")
    n_rows, n_cols = values.shape
    if n_rows == 0 or n_cols == 0:
        return _empty_assignment(n_rows, n_cols)
    if not np.all(np.isfinite(values)):
        raise ValueError("similarity matrix entries must be finite")

    admissible = values >= np.asarray(gate, dtype=float)
    if admissible.shape != values.shape:
        raise ValueError(f"gate of shape {np.shape(gate)} does not broadcast to {values.shape}")
    if not admissible.any():
        return _empty_assignment(n_rows, n_cols)

    # Negative and inadmissible pairs are worth no more than leaving both
    # sides unmatched, so they weigh 0 and are dropped from the solution: what
    # is kept is a maximum-total matching of admissible pairs.
    rows, cols = linear_sum_assignment(
        np.where(admissible, np.maximum(values, 0.0), 0.0), maximize=True
    )
    keep = admissible[rows, cols] & (values[rows, cols] >= 0.0)
    rows, cols = rows[keep], cols[keep]
    free_rows = np.ones(n_rows, dtype=bool)
    free_rows[rows] = False
    free_cols = np.ones(n_cols, dtype=bool)
    free_cols[cols] = False
    return Assignment(np.array((rows, cols)).T, free_rows.nonzero()[0], free_cols.nonzero()[0])
