"""Result record shared by the model-counting algorithms."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.common.stats import median


@dataclass
class ApproxCountResult:
    """Outcome of a PAC model-counting run.

    ``estimate`` is the median-of-repetitions count; ``oracle_calls`` the
    paper's cost metric (0 for pure polynomial-time DNF paths);
    ``iteration_sketches`` the per-repetition sketch contents, exposed so
    experiments can inspect the sketch relation directly.

    Use :meth:`from_repetitions` to assemble one: it owns the
    median-plus-field-packing step every counter used to re-implement by
    hand, and the spread accessors save benchmarks from recomputing
    order statistics over ``raw_estimates``.
    """

    estimate: float
    oracle_calls: int = 0
    #: Per-repetition raw estimates (before the median).
    raw_estimates: List[float] = field(default_factory=list)
    #: Per-repetition sketch summaries; shape depends on the algorithm:
    #: Bucketing: (cell_count, level); Minimum: tuple of kept hash values;
    #: Estimation: tuple of max-trail-zero entries.
    iteration_sketches: List[Tuple] = field(default_factory=list)

    @classmethod
    def from_repetitions(cls, raw_estimates: Sequence[float],
                         sketches: Optional[Iterable[Tuple]] = None,
                         oracle_calls: int = 0) -> "ApproxCountResult":
        """Assemble the result from per-repetition raw estimates.

        The estimate is the lower median of ``raw_estimates`` (the paper's
        aggregation rule); sketches and the oracle-call total are carried
        through verbatim.
        """
        raw = list(raw_estimates)
        return cls(
            estimate=median(raw),
            oracle_calls=oracle_calls,
            raw_estimates=raw,
            iteration_sketches=list(sketches) if sketches is not None else [],
        )

    # -- spread over the repetitions (for benchmarks and diagnostics) ---

    @property
    def min_estimate(self) -> float:
        """Smallest per-repetition raw estimate."""
        return min(self.raw_estimates) if self.raw_estimates \
            else self.estimate

    @property
    def max_estimate(self) -> float:
        """Largest per-repetition raw estimate."""
        return max(self.raw_estimates) if self.raw_estimates \
            else self.estimate

    @property
    def spread(self) -> float:
        """``max - min`` of the raw estimates: how far the repetitions
        disagreed before the median stepped in."""
        return self.max_estimate - self.min_estimate
