"""Seeded soak/load harness for long-lived windowed-sketch services.

A *soak episode* is a deterministic stream of timestamped ingest events
-- generated from one integer seed, serialisable to JSONL
byte-identically -- replayed against a :class:`WindowedF0` sketch
either directly (``mode="store"``) or through a live multi-process
service (``mode="service"``).  While the episode runs, the harness:

* tracks a per-window **exact reference** (sets bucketed by the same
  ring epochs the sketch uses) and checks every sampled estimate
  against the ``(1 + eps)`` envelope band;
* enforces a **byte budget** against the sketch's reported
  ``space_bits`` (a windowed sketch under churn must stay flat; the
  exact reference keeps growing -- that gap is the point);
* exercises the **snapshot round trip** (serialize, reload, re-serialize
  must be bit-identical);
* writes one JSON **artifact** per episode recording the seed, git
  hash, rss ceiling, eviction counts and envelope rate, so a CI
  failure is reproducible from the artifact alone.

Every number derives from ``random.Random(seed)``: rerunning an
episode with the same seed regenerates the same JSONL bytes and the
same sketch states.  ``python tools/soak.py --seed 7 --out DIR`` runs
the standard episode set from the command line; ``--smoke`` runs the
one small episode tier-1 CI uses.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, Iterator, List, Optional

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    os.pardir, "src"))

from repro.common.errors import ReproError  # noqa: E402
from repro.store.factory import build_sketch  # noqa: E402
from repro.store.serialize import dumps, loads  # noqa: E402
from repro.streaming.base import SketchParams  # noqa: E402

#: Accuracy knobs every standard episode uses -- loose enough that the
#: cheap sketches stay fast, tight enough that a broken rotation (items
#: never evicted, or evicted too early) lands far outside the band.
SOAK_PARAMS = dict(eps=0.7, delta=0.3, thresh_constant=12.0,
                   repetitions_constant=3.0)


class SoakFailure(ReproError):
    """A soak gate (envelope, byte budget, round trip) was violated."""


@dataclass(frozen=True)
class EpisodeSpec:
    """One fully-determined soak episode.

    Every field feeds the seeded generator, so two specs that compare
    equal replay byte-identically.
    """

    name: str
    seed: int
    kind: str = "minimum"
    universe_bits: int = 14
    window: float = 8.0
    buckets: int = 4
    ticks: int = 48
    base_rate: int = 40
    eps: float = SOAK_PARAMS["eps"]
    delta: float = SOAK_PARAMS["delta"]
    thresh_constant: float = SOAK_PARAMS["thresh_constant"]
    repetitions_constant: float = SOAK_PARAMS["repetitions_constant"]

    @property
    def width(self) -> float:
        """Ring-bucket width in logical time units."""
        return self.window / self.buckets

    @property
    def params(self) -> SketchParams:
        """The spec's accuracy knobs as a :class:`SketchParams`."""
        return SketchParams(
            eps=self.eps, delta=self.delta,
            thresh_constant=self.thresh_constant,
            repetitions_constant=self.repetitions_constant)

    def build(self):
        """A fresh sketch matching this spec (seeded by ``seed``)."""
        return build_sketch(self.kind, self.universe_bits, self.params,
                            seed=self.seed, window=self.window,
                            buckets=self.buckets)


def generate_events(spec: EpisodeSpec) -> Iterator[Dict[str, object]]:
    """The episode's event stream: ``{"t": float, "items": [int, ...]}``.

    Ticks advance logical time by half a ring-bucket width and move
    through three phases:

    * **churn** (first third): a steady rate of uniform draws -- old
      items keep falling out of the window while new ones arrive.
    * **burst** (second third): near-quiet with a 6x spike every fifth
      tick drawn from a narrow range (heavy repetition).
    * **rolling cardinality** (final third): the draw range ramps up
      and back down, so the true windowed cardinality rises and falls.
    """
    rng = random.Random(spec.seed)
    universe = 1 << spec.universe_bits
    third = max(1, spec.ticks // 3)
    for tick in range(spec.ticks):
        t = tick * (spec.width / 2.0)
        if tick < third:  # churn
            count = spec.base_rate
            lo, hi = 0, universe
        elif tick < 2 * third:  # burst
            if tick % 5 == 0:
                count = 6 * spec.base_rate
                lo, hi = 0, max(2, universe // 64)
            else:
                count = max(1, spec.base_rate // 4)
                lo, hi = 0, universe
        else:  # rolling cardinality
            phase = (tick - 2 * third) / max(1, spec.ticks - 2 * third)
            ramp = 1.0 - abs(2.0 * phase - 1.0)  # 0 -> 1 -> 0
            count = spec.base_rate
            hi = max(2, int(universe * (0.05 + 0.95 * ramp)))
            lo = 0
        items = [rng.randrange(lo, hi) for _ in range(count)]
        yield {"items": items, "t": t}


def episode_jsonl(spec: EpisodeSpec) -> bytes:
    """The episode as canonical JSONL bytes (sorted keys, ``\\n`` ends).

    Byte-identical across reruns of the same spec -- the regeneration
    gate :mod:`tests.test_soak` enforces.
    """
    lines = [json.dumps(event, sort_keys=True, separators=(",", ":"))
             for event in generate_events(spec)]
    return ("\n".join(lines) + "\n").encode("utf-8")


def write_episode(spec: EpisodeSpec, path: str) -> int:
    """Write the episode's JSONL stream to ``path``; returns events."""
    data = episode_jsonl(spec)
    with open(path, "wb") as f:
        f.write(data)
    return data.count(b"\n")


def read_episode(path: str) -> List[Dict[str, object]]:
    """Load a JSONL episode file back into its event list."""
    events = []
    with open(path, "rb") as f:
        for line in f:
            if line.strip():
                events.append(json.loads(line))
    return events


class ExactWindowReference:
    """Ground truth mirroring the ring's epoch bucketing exactly.

    Items live in per-epoch sets; the reference count for the trailing
    window is the union over the ``buckets`` newest epochs -- the same
    set the sketch's merged ring summarises, so reference and sketch
    disagree only by sketching error, never by bucketing skew.
    """

    def __init__(self, width: float, buckets: int) -> None:
        self.width = width
        self.buckets = buckets
        self._epochs: Dict[int, set] = {}
        self._epoch = 0

    def observe(self, t: float, items) -> None:
        """Record ``items`` at logical time ``t``."""
        epoch = int(math.floor(t / self.width))
        self._epoch = max(self._epoch, epoch)
        self._epochs.setdefault(epoch, set()).update(items)
        horizon = self._epoch - self.buckets
        for stale in [e for e in self._epochs if e <= horizon]:
            del self._epochs[stale]

    def advance(self, t: float) -> None:
        """Move the reference clock without recording items."""
        self.observe(t, ())

    def truth(self) -> int:
        """Exact distinct count over the live window."""
        live: set = set()
        for epoch in range(self._epoch - self.buckets + 1,
                           self._epoch + 1):
            live |= self._epochs.get(epoch, set())
        return len(live)


def in_envelope(estimate: float, truth: float, eps: float) -> bool:
    """True when ``estimate`` sits in the ``(1 + eps)`` band of truth."""
    if truth == 0:
        return estimate == 0
    return truth / (1.0 + eps) <= estimate <= (1.0 + eps) * truth


def git_hash() -> str:
    """The repo's current commit hash, or ``"unknown"`` outside git."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True,
            cwd=os.path.dirname(os.path.abspath(__file__)), timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    if out.returncode != 0:
        return "unknown"
    return out.stdout.decode("ascii", "replace").strip() or "unknown"


def rss_ceiling_kib() -> int:
    """Peak resident set size of this process in KiB (0 if unknown)."""
    try:
        import resource
    except ImportError:
        return 0
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


@dataclass
class EpisodeReport:
    """Everything a failed CI run needs to reproduce an episode."""

    episode: str
    seed: int
    git_hash: str
    mode: str
    kind: str
    window: float
    buckets: int
    ticks: int = 0
    items: int = 0
    checkpoints: int = 0
    envelope_ok: int = 0
    envelope_rate: float = 1.0
    evictions: int = 0
    max_space_bits: int = 0
    byte_budget: Optional[int] = None
    rss_ceiling_kib: int = 0
    snapshot_roundtrip_ok: bool = True
    failures: List[str] = field(default_factory=list)

    def gate(self, min_envelope_rate: float) -> None:
        """Raise :class:`SoakFailure` unless every gate held."""
        problems = list(self.failures)
        if self.envelope_rate < min_envelope_rate:
            problems.append(
                f"envelope rate {self.envelope_rate:.3f} < "
                f"{min_envelope_rate:.3f} "
                f"({self.envelope_ok}/{self.checkpoints} checkpoints)")
        if problems:
            raise SoakFailure(
                f"episode {self.episode!r} (seed {self.seed}): "
                + "; ".join(problems))


def _drive(spec: EpisodeSpec, events, sketch_ops: Dict[str, Callable],
           report: EpisodeReport, byte_budget: Optional[int],
           check_every: int) -> None:
    """Replay ``events`` through abstract sketch ops, filling ``report``.

    ``sketch_ops`` maps ``advance(t)``, ``ingest(items)``,
    ``estimate() -> float`` and ``space_bits() -> int`` onto whichever
    transport (in-process store or live service) the episode targets,
    so the checking logic is written exactly once.
    """
    reference = ExactWindowReference(spec.width, spec.buckets)
    for index, event in enumerate(events):
        t = float(event["t"])
        items = [int(x) for x in event["items"]]
        sketch_ops["advance"](t)
        reference.advance(t)
        if items:
            sketch_ops["ingest"](items)
            reference.observe(t, items)
        report.ticks += 1
        report.items += len(items)
        if (index + 1) % check_every and index + 1 != len(events):
            continue
        estimate = sketch_ops["estimate"]()
        truth = reference.truth()
        report.checkpoints += 1
        if in_envelope(estimate, truth, spec.eps):
            report.envelope_ok += 1
        bits = int(sketch_ops["space_bits"]())
        report.max_space_bits = max(report.max_space_bits, bits)
        if byte_budget is not None and bits > 8 * byte_budget:
            report.failures.append(
                f"space {bits // 8} B exceeds byte budget "
                f"{byte_budget} B at tick {report.ticks}")
    report.envelope_rate = (report.envelope_ok / report.checkpoints
                            if report.checkpoints else 1.0)


def run_episode(spec: EpisodeSpec, mode: str = "store",
                byte_budget: Optional[int] = None,
                check_every: int = 4, procs: int = 2,
                events: Optional[List[Dict[str, object]]] = None,
                ) -> EpisodeReport:
    """Replay one episode and return its filled :class:`EpisodeReport`.

    Args:
        spec: the episode to run.
        mode: ``"store"`` drives the sketch in-process;
            ``"service"`` drives a live multi-process service over
            HTTP (pre-fork workers, shared delta log).
        byte_budget: fail any checkpoint whose serialized-state bound
            ``space_bits/8`` exceeds this many bytes.
        check_every: checkpoint cadence in ticks (the final tick always
            checks).
        events: replay this pre-loaded event list instead of
            regenerating from the spec (the JSONL-replay path).

    The report is returned for all outcomes; call
    :meth:`EpisodeReport.gate` to turn violations into a raise.
    """
    if events is None:
        events = list(generate_events(spec))
    report = EpisodeReport(
        episode=spec.name, seed=spec.seed, git_hash=git_hash(),
        mode=mode, kind=spec.kind, window=spec.window,
        buckets=spec.buckets, byte_budget=byte_budget)
    if mode == "store":
        _run_store_mode(spec, events, report, byte_budget, check_every)
    elif mode == "service":
        _run_service_mode(spec, events, report, byte_budget,
                          check_every, procs)
    else:
        raise ReproError(f"unknown soak mode {mode!r}; "
                         "use 'store' or 'service'")
    report.rss_ceiling_kib = rss_ceiling_kib()
    return report


def _run_store_mode(spec: EpisodeSpec, events, report: EpisodeReport,
                    byte_budget: Optional[int],
                    check_every: int) -> None:
    """In-process episode: the sketch lives in this interpreter."""
    sketch = spec.build()
    ops = {
        "advance": sketch.advance,
        "ingest": sketch.process_batch,
        "estimate": sketch.estimate,
        "space_bits": sketch.space_bits,
    }
    _drive(spec, events, ops, report, byte_budget, check_every)
    report.evictions = sketch.evictions
    frame = dumps(sketch)
    report.snapshot_roundtrip_ok = dumps(loads(frame)) == frame
    if not report.snapshot_roundtrip_ok:
        report.failures.append("snapshot round trip not bit-identical")


def _run_service_mode(spec: EpisodeSpec, events, report: EpisodeReport,
                      byte_budget: Optional[int], check_every: int,
                      procs: int) -> None:
    """Live-service episode: every op travels over HTTP to a pre-fork
    multi-process fleet reconciling through the shared delta log."""
    from repro.service.client import ServiceClient
    from repro.service.multiproc import MultiprocFrontend
    from repro.service.router import Router

    frontend = MultiprocFrontend(("127.0.0.1", 0), Router(),
                                 procs=procs, delta_interval=0.0)
    frontend.start_background()
    try:
        client = ServiceClient(frontend.url)
        client.create(spec.name, kind=spec.kind,
                      universe_bits=spec.universe_bits, eps=spec.eps,
                      delta=spec.delta,
                      thresh_constant=spec.thresh_constant,
                      repetitions_constant=spec.repetitions_constant,
                      seed=spec.seed, window=spec.window,
                      buckets=spec.buckets)
        ops = {
            "advance": lambda t: client.advance(spec.name, t),
            "ingest": lambda items: client.ingest(spec.name, items),
            "estimate": lambda: client.estimate(spec.name),
            "space_bits":
                lambda: int(client.info(spec.name)["space_bits"]),
        }
        _drive(spec, events, ops, report, byte_budget, check_every)
        final = client.fetch(spec.name)
        report.evictions = final.evictions
        frame = dumps(final)
        report.snapshot_roundtrip_ok = dumps(loads(frame)) == frame
        if not report.snapshot_roundtrip_ok:
            report.failures.append(
                "snapshot round trip not bit-identical")
    finally:
        frontend.stop()


def write_artifact(report: EpisodeReport, out_dir: str) -> str:
    """Write the report as ``<out_dir>/<episode>.json``; returns path."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{report.episode}.json")
    with open(path, "w") as f:
        json.dump(asdict(report), f, indent=2, sort_keys=True)
        f.write("\n")
    return path


def standard_episodes(seed: int) -> List[EpisodeSpec]:
    """The nightly episode set: every sketch kind.

    Flajolet-Martin runs with a wider ``eps`` and more repetitions:
    its estimator snaps to powers of two, so a ``(1 + 0.7)`` band is
    tighter than the algorithm's own constant-factor guarantee.
    """
    episodes = [
        EpisodeSpec(name=f"soak-{kind}", seed=seed + index, kind=kind)
        for index, kind in enumerate(
            ("minimum", "estimation", "bucketing"))
    ]
    episodes.append(EpisodeSpec(name="soak-fm", seed=seed + 3,
                                kind="fm", eps=2.0,
                                repetitions_constant=12.0))
    return episodes


def smoke_episode(seed: int) -> EpisodeSpec:
    """The tiny deterministic episode tier-1 CI replays every run."""
    return EpisodeSpec(name="soak-smoke", seed=seed, kind="minimum",
                       universe_bits=12, window=6.0, buckets=3,
                       ticks=18, base_rate=25)


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry: run episodes, write artifacts, gate, exit non-zero
    on any violation."""
    parser = argparse.ArgumentParser(
        description="seeded soak harness for windowed F0 sketches")
    parser.add_argument("--seed", type=int, default=7,
                        help="master seed (default 7)")
    parser.add_argument("--out", default="soak-artifacts",
                        help="artifact directory "
                             "(default soak-artifacts)")
    parser.add_argument("--mode", choices=("store", "service"),
                        default="store",
                        help="drive the sketch in-process (store) or "
                             "through a live multiproc service")
    parser.add_argument("--smoke", action="store_true",
                        help="run only the small tier-1 smoke episode")
    parser.add_argument("--byte-budget", type=int, default=262144,
                        help="per-sketch serialized-state budget in "
                             "bytes (default 256 KiB)")
    parser.add_argument("--min-envelope-rate", type=float, default=0.6,
                        help="minimum fraction of checkpoints inside "
                             "the (1+eps) band (default 0.6)")
    args = parser.parse_args(argv)
    episodes = ([smoke_episode(args.seed)] if args.smoke
                else standard_episodes(args.seed))
    status = 0
    for spec in episodes:
        report = run_episode(spec, mode=args.mode,
                             byte_budget=args.byte_budget)
        path = write_artifact(report, args.out)
        try:
            report.gate(args.min_envelope_rate)
            verdict = "ok"
        except SoakFailure as exc:
            verdict = f"FAIL ({exc})"
            status = 1
        print(f"{spec.name}: {report.items} items / {report.ticks} "
              f"ticks, envelope {report.envelope_ok}/"
              f"{report.checkpoints}, evictions {report.evictions}, "
              f"space <= {report.max_space_bits // 8} B, "
              f"artifact {path} -- {verdict}")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
