"""Instrumentation counters reproducing the paper's evaluation metrics.

The experimental section of the paper (§4.1) measures, besides utility and
wall-clock time:

* the *number of computations for assignment scores*, where each assignment
  score costs ``|U|`` elementary computations (one per user), and
* the *number of assignments examined* (the "search space" of Fig. 10b).

:class:`ComputationCounter` tracks both, plus a few secondary counters that
are useful when analysing the algorithms (how many of the score computations
were initial vs. update recomputations, how many selections were made).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict


@dataclass
class ComputationCounter:
    """Mutable counter bundle shared between a scoring engine and a scheduler.

    Attributes
    ----------
    score_computations:
        Number of assignment-score evaluations (Eq. 4 of the paper).
    user_computations:
        ``score_computations`` weighted by the number of users of each
        evaluation — the paper's "number of computations" metric.
    initial_computations:
        Score evaluations performed while generating the initial assignments.
    update_computations:
        Score evaluations performed to refresh stale assignments after a
        selection (the quantity the INC/HOR/HOR-I schemes reduce).
    assignments_examined:
        Number of assignment entries touched while selecting, updating or
        validating (the Fig. 10b "search space" metric).
    assignments_generated:
        Number of (event, interval) assignment entries materialised.
    selections:
        Number of assignments added to the schedule.
    """

    num_users: int = 0
    score_computations: int = 0
    user_computations: int = 0
    initial_computations: int = 0
    update_computations: int = 0
    assignments_examined: int = 0
    assignments_generated: int = 0
    selections: int = 0
    extra: Dict[str, int] = field(default_factory=dict)

    def count_score(self, *, initial: bool = False, num_users: int | None = None) -> None:
        """Record one assignment-score evaluation.

        Parameters
        ----------
        initial:
            ``True`` if the evaluation belongs to the initial assignment
            generation phase, ``False`` if it is an update.
        num_users:
            Number of users involved; defaults to the counter's configured
            ``num_users``.
        """
        self.count_scores(1, initial=initial, num_users=num_users)

    def count_scores(
        self, amount: int, *, initial: bool = False, num_users: int | None = None
    ) -> None:
        """Record ``amount`` assignment-score evaluations in one call.

        Used by the engine's bulk path, which evaluates many assignments in a
        single vectorised pass but must report exactly the same totals as
        ``amount`` individual :meth:`count_score` calls, so the paper's
        "number of computations" metric does not depend on how scores are
        evaluated.
        """
        users = self.num_users if num_users is None else num_users
        self.score_computations += amount
        self.user_computations += amount * users
        if initial:
            self.initial_computations += amount
        else:
            self.update_computations += amount

    def count_examined(self, amount: int = 1) -> None:
        """Record that ``amount`` assignment entries were examined."""
        self.assignments_examined += amount

    def count_generated(self, amount: int = 1) -> None:
        """Record that ``amount`` assignment entries were materialised."""
        self.assignments_generated += amount

    def count_selection(self, amount: int = 1) -> None:
        """Record that ``amount`` assignments were added to the schedule."""
        self.selections += amount

    def bump(self, key: str, amount: int = 1) -> None:
        """Increment a free-form named counter (stored under ``extra``)."""
        self.extra[key] = self.extra.get(key, 0) + amount

    def reset(self) -> None:
        """Zero every counter (``num_users`` is preserved)."""
        self.score_computations = 0
        self.user_computations = 0
        self.initial_computations = 0
        self.update_computations = 0
        self.assignments_examined = 0
        self.assignments_generated = 0
        self.selections = 0
        self.extra = {}

    def snapshot(self) -> Dict[str, int]:
        """Return a plain-dict copy of the current counter values."""
        data = asdict(self)
        extra = data.pop("extra")
        data.update({f"extra.{key}": value for key, value in extra.items()})
        return data

    def merge(self, other: "ComputationCounter") -> None:
        """Add another counter's totals into this one (used for aggregation)."""
        self.score_computations += other.score_computations
        self.user_computations += other.user_computations
        self.initial_computations += other.initial_computations
        self.update_computations += other.update_computations
        self.assignments_examined += other.assignments_examined
        self.assignments_generated += other.assignments_generated
        self.selections += other.selections
        for key, value in other.extra.items():
            self.bump(key, value)
