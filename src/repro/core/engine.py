"""The unified repetition engine: one recipe, four counters.

The paper's central observation is that every sketch-derived #CNF
algorithm is the *same* algorithm: sample a hash function per repetition,
probe the formula's solution space through an NP oracle to build that
repetition's sketch, and aggregate the per-repetition estimates with a
median.  Before this module, ApproxMC, MinCount, EstCount and FMCount
each hand-rolled that loop -- four copies of hash pre-sampling,
serial/parallel dispatch, oracle-call accounting and result packing.

Now the recipe itself is the first-class object:

* :class:`CounterStrategy` is what varies between algorithms -- how a
  repetition's hash material is drawn (``sample_hashes``), what one
  repetition computes (``run_repetition``), what repetition 0's sketch
  tells the rest (``seed_rest``), and how sketches become a result
  (``aggregate``).
* :class:`RepetitionEngine` is what never varies -- it draws all hash
  material in the parent in serial order (the determinism discipline of
  :mod:`repro.parallel.executor`; :func:`repro.parallel.executor.
  split_seeds` is the hook for strategies that need per-repetition
  generators instead of pre-drawn hashes), runs repetition 0 inline,
  dispatches the rest inline, over a thread pool, or over a process
  pool (the backend a bare ``workers=k`` resolves to is the executor
  registry's decision: ``--executor`` / ``REPRO_EXECUTOR`` / auto --
  see :mod:`repro.parallel.registry`), ships the strategy
  ``seed_rest`` returns once per worker as the shared payload, sums the
  per-repetition oracle-call counts, and hands the ordered sketches to
  ``aggregate`` (which typically finishes with
  :meth:`repro.core.results.ApproxCountResult.from_repetitions`).

Determinism contract
--------------------

For a fixed RNG seed the engine produces bit-identical estimates,
per-repetition sketches and oracle-call totals at any worker count, and
identically to the pre-engine per-counter loops (except ApproxMC's
oracle calls, which its ``seed_rest`` start hint lowers):

* ``sample_hashes`` runs in the parent, before any dispatch, consuming
  the RNG exactly as the old serial loops did;
* ``run_repetition`` is self-contained -- it builds its own oracle, so a
  repetition's answers cannot depend on which process *or thread* ran it
  or what ran before it (solver state was never shared across
  repetitions: sessions are per-repetition even under a shared
  ``NpOracle``, whose call counter is simply additive).  Self-containment
  is also what makes thread dispatch safe: concurrent repetitions touch
  the shared strategy read-only;
* the only information passed between repetitions is repetition 0's
  sketch, through ``seed_rest``: repetition 0 always runs first, inline
  in the parent, so the strategy every later repetition sees is the same
  at any worker count (a hint from "whichever repetition finished first"
  would not be);
* results are gathered in task order, so the median sees the same
  sequence regardless of scheduling.

Strategies must be picklable (they travel to pool workers as the shared
payload): plain data fields only -- formulas, hash families, parameter
scalars, backend *names* rather than solver objects.
"""

from __future__ import annotations

import abc
from typing import Any, List, Optional, Sequence, Tuple

from repro.common.errors import InvalidParameterError
from repro.common.rng import RandomSource
from repro.parallel.executor import Executor, executor_for

#: One repetition's outcome: (sketch, oracle_calls).
RepetitionOutcome = Tuple[Tuple, int]


class CounterStrategy(abc.ABC):
    """What one counting algorithm contributes to the shared recipe.

    Implementations are plain picklable records of the run's parameters
    (formula, thresholds, repetition count, oracle backend name).  The
    engine calls the hooks in order; nothing else about the
    algorithm is visible to it.
    """

    @abc.abstractmethod
    def sample_hashes(self, rng: RandomSource) -> List[Any]:
        """Draw every repetition's hash material in serial order.

        Returns one task payload per repetition (a hash function, a list
        of hash functions, a derived seed -- whatever
        :meth:`run_repetition` needs).  Runs in the parent process before
        dispatch; this is the *only* place a strategy may touch ``rng``.
        """

    @abc.abstractmethod
    def run_repetition(self, task: Any) -> RepetitionOutcome:
        """Execute one repetition; returns ``(sketch, oracle_calls)``.

        Must be self-contained: build the oracle locally, share no
        mutable state with other repetitions.  Runs in the parent (serial
        dispatch) or in a pool worker (parallel dispatch) -- the result
        must not depend on which.
        """

    def seed_rest(self, first_sketch: Tuple) -> "CounterStrategy":
        """The strategy repetitions ``1..t-1`` run under, given
        repetition 0's sketch (the shared payload of the fan-out).

        A hint that changes what the rest *cost*, never what they
        compute: ApproxMC starts its level search next to repetition 0's
        level.  The default passes ``self`` unchanged.
        """
        return self

    @abc.abstractmethod
    def aggregate(self, tasks: Sequence[Any], sketches: Sequence[Tuple],
                  oracle_calls: int):
        """Combine ordered per-repetition sketches into the final result
        (typically via ``ApproxCountResult.from_repetitions``).

        ``tasks`` is what :meth:`sample_hashes` returned, aligned with
        ``sketches`` -- estimators that need per-repetition hash metadata
        (e.g. Minimum's value width) read it from here.
        """


def presampled_hashes(hashes: Optional[Sequence], repetitions: int,
                      family, rng: RandomSource) -> List:
    """Shared ``sample_hashes`` body for strategies that accept
    caller-supplied hash functions (the sketch-equivalence experiments
    feed identical functions to the streaming side): validate and
    truncate the supplied sequence, or draw ``repetitions`` fresh
    functions from ``family`` in serial order."""
    if hashes is not None:
        if len(hashes) < repetitions:
            raise InvalidParameterError("not enough hash functions supplied")
        return list(hashes[:repetitions])
    return [family.sample(rng) for _ in range(repetitions)]


def _run_repetition(task: Any, strategy: CounterStrategy) -> RepetitionOutcome:
    """Module-level trampoline: pool workers receive the strategy as the
    shared payload (shipped once per worker chunk, not once per task)."""
    return strategy.run_repetition(task)


class RepetitionEngine:
    """Owns everything the four counters used to duplicate; see module
    docstring for the determinism contract."""

    def __init__(self, strategy: CounterStrategy) -> None:
        self.strategy = strategy

    def run(self, rng: RandomSource, workers: int = 1,
            executor: Optional[Executor] = None):
        """Sample, run repetition 0, dispatch the rest, account,
        aggregate.

        Args:
            rng: the only randomness source; consumed entirely in the
                parent by ``strategy.sample_hashes`` before dispatch,
                in the serial draw order (the determinism contract).
            workers: repetition fan-out -- ``1`` is the inline serial
                loop, ``0`` means all cores, ``k`` a pool of that size
                (thread or process: whatever the executor registry's
                ``--executor`` / ``REPRO_EXECUTOR`` / auto chain picks).
            executor: caller-supplied executor used as-is and left open
                (overrides ``workers``); see
                :func:`repro.parallel.executor.executor_for`.

        Returns:
            Whatever ``strategy.aggregate`` builds -- for the shipped
            counters, an
            :class:`~repro.core.results.ApproxCountResult` whose
            estimate, per-repetition sketches and oracle-call total are
            bit-identical at any worker count.

        Raises:
            InvalidParameterError: ``workers < 0``.
        """
        strategy = self.strategy
        tasks = strategy.sample_hashes(rng)
        with executor_for(workers, executor) as ex:
            outcomes = [strategy.run_repetition(task) for task in tasks[:1]]
            rest = strategy.seed_rest(outcomes[0][0]) if outcomes else strategy
            outcomes += ex.map(_run_repetition, tasks[1:], shared=rest)
        sketches = [sketch for sketch, _ in outcomes]
        oracle_calls = sum(calls for _, calls in outcomes)
        return strategy.aggregate(tasks, sketches, oracle_calls)


def run_strategy(strategy: CounterStrategy, rng: RandomSource,
                 workers: int = 1,
                 executor: Optional[Executor] = None):
    """One-shot convenience: ``RepetitionEngine(strategy).run(...)``."""
    return RepetitionEngine(strategy).run(rng, workers=workers,
                                          executor=executor)
