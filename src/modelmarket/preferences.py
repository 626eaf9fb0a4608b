"""Score matrices derived from per-criterion model performance and type preferences."""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .errors import MarketGameError
from .game import Record, ScoreMatrix, _frozen_array, _labels

__all__ = ["PreferenceTable", "scores_from_preferences"]


class PreferenceTable(Record, eq=False):
    """Per-type non-negative weights over a shared list of criteria, the
    criteria and the type labels each distinct strings.

    Weight vectors are used exactly as stored.
    """

    criteria: tuple[str, ...]
    type_labels: tuple[str, ...]
    weights: np.ndarray  # K x C

    def __init__(self, criteria: Iterable[str], type_labels: Iterable[str], weights):
        crit = _labels(criteria, "preference criteria")
        labels = _labels(type_labels, "user type labels")
        w = _frozen_array(weights)
        if w.ndim != 2 or w.shape != (len(labels), len(crit)):
            raise MarketGameError("weights must be a K x C matrix matching labels and criteria")
        if np.any(w < 0) or not np.all(np.isfinite(w)):
            raise MarketGameError("preference weights must be finite and non-negative")
        object.__setattr__(self, "criteria", crit)
        object.__setattr__(self, "type_labels", labels)
        object.__setattr__(self, "weights", w)


def scores_from_preferences(
    performance,
    prefs: PreferenceTable,
    model_labels: Iterable[str] | None = None,
) -> ScoreMatrix:
    """S_j(theta) = sum_c theta_c * performance[j, c].

    ``performance`` is a model x criterion matrix of non-negative entries;
    the preference vectors are used as stored, not rescaled.
    """
    perf = np.asarray(performance, dtype=float)
    if perf.ndim != 2 or perf.shape[1] != len(prefs.criteria):
        raise MarketGameError(
            f"performance must be M x {len(prefs.criteria)} to match the preference criteria"
        )
    if np.any(perf < 0) or not np.all(np.isfinite(perf)):
        raise MarketGameError("performance entries must be finite and non-negative")
    return ScoreMatrix(perf @ prefs.weights.T, model_labels=model_labels)
