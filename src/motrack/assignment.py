"""Gated optimal bipartite matching between detections and tracklets.

solve_assignment(values, admissible) is the one solver entry: callers gate
their values into a mask of admissible pairs, values must be finite where
admissible and are ignored elsewhere, and a table whose admissible pairs
already form a matching of positive pairs is returned without the solver.

The solver is scipy's linear_sum_assignment, Crouse's rectangular LSAP. It is
the builtin of scipy's compiled module scipy.optimize._lsap, and only that
module is loaded: importing the scipy.optimize package would cost most of
motrack's import time and memory. The module is registered under its own
name, so a later import of scipy.optimize uses the same module and function.
A scipy without a compiled _lsap in its optimize directory is served by
``from scipy.optimize import linear_sum_assignment`` instead.
"""

from __future__ import annotations

import os
import sys
from collections.abc import Callable
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from importlib.util import find_spec, module_from_spec

import numpy as np

_LSAP = "scipy.optimize._lsap"


def _load_solver(directory: str) -> Callable:
    """linear_sum_assignment of the compiled _LSAP module in directory, loaded
    alone unless it is loaded already; from the scipy.optimize package if
    directory holds no such module."""
    module = sys.modules.get(_LSAP)
    if module is None:
        spec = FileFinder(directory, (ExtensionFileLoader, EXTENSION_SUFFIXES)).find_spec(_LSAP)
        if spec is None:
            from scipy.optimize import linear_sum_assignment
            return linear_sum_assignment
        module = module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[_LSAP] = module
    return module.linear_sum_assignment


linear_sum_assignment = _load_solver(
    os.path.join(os.path.dirname(find_spec("scipy").origin), "optimize"))


@dataclass(frozen=True)
class Assignment:
    """Result of a gated matching: matched index pairs plus leftovers.

    ``matches`` is a (k, 2) array of (row, column) pairs in row order; the
    unmatched fields are ascending index arrays. Each detection/tracklet index
    appears in at most one match; matches and the unmatched sets partition both
    index ranges, and every matched pair is admissible.
    """

    matches: np.ndarray
    unmatched_detections: np.ndarray
    unmatched_tracklets: np.ndarray


def solve_assignment(values: np.ndarray, admissible: np.ndarray) -> Assignment:
    """Maximize the total value over matchings of admissible pairs.

    Args:
        values: M x N scores (any array-like), finite where admissible.
        admissible: M x N mask of the pairs that may be matched.

    Returns:
        The optimal assignment. Leaving a pair unmatched contributes zero, so
        no pair worth less than 0 is matched: the solver weighs negative and
        inadmissible pairs 0, and they are dropped from its answer. An
        admissible pair worth exactly 0 leaves the total as it is; it is
        matched when the solver's answer holds it (values >= 0 are kept),
        which among tied optima is the solver's choice, so such a pair may
        stay unmatched even with its row and column free. Ties resolve
        deterministically for fixed inputs. An empty table matches nothing.
        A conflict-free table, where no row and no column holds two
        admissible pairs and every admissible value is > 0, is matched by
        exactly its admissible pairs without running the solver: each raises
        the total and none excludes another. A conflict-free table with an
        admissible value of 0 goes to the solver.

    Raises:
        ValueError: values are not 2-D, the mask has another shape, or an
            admissible value is not finite.
    """
    values = np.asarray(values, dtype=float)
    admissible = np.asarray(admissible, dtype=bool)
    if values.ndim != 2:
        raise ValueError(f"similarity matrix must be 2-D, got shape {values.shape}")
    if admissible.shape != values.shape:
        raise ValueError(f"admissible mask of shape {admissible.shape} does not match "
                         f"the similarity matrix's {values.shape}")
    rows, cols = admissible.nonzero()  # rows ascending, so a repeated row is adjacent
    kept = values[rows, cols]
    if not np.isfinite(kept).all():
        raise ValueError("similarity matrix entries must be finite where admissible")
    if len(rows) and not (
        (rows[1:] != rows[:-1]).all() and np.bincount(cols).max() == 1 and (kept > 0.0).all()
    ):
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
