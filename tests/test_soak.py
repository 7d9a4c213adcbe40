"""Tests for the seeded soak harness (tools/soak.py).

Tier-1 runs the small smoke episode plus the determinism gates (same
seed => byte-identical JSONL and identical reports).  The full episode
sweep, the service-mode soak and the serial/merged-replicas/service
bit-identity gate are marked slow -- nightly CI runs them with
``--runslow`` and uploads the per-episode artifacts.
"""

import json
import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir,
                                "tools"))

import soak  # noqa: E402
from repro.store.serialize import dumps  # noqa: E402

SEED = 7
#: Generous serialized-state cap for the tiny test episodes -- a
#: windowed sketch under churn stays orders of magnitude below this;
#: only an eviction bug (the ring growing without bound) trips it.
BUDGET = 64 * 1024


class TestDeterminism:
    def test_jsonl_regenerates_byte_identically(self):
        spec = soak.smoke_episode(SEED)
        assert soak.episode_jsonl(spec) == soak.episode_jsonl(spec)

    def test_different_seeds_differ(self):
        assert (soak.episode_jsonl(soak.smoke_episode(1))
                != soak.episode_jsonl(soak.smoke_episode(2)))

    def test_jsonl_file_round_trip(self, tmp_path):
        spec = soak.smoke_episode(SEED)
        path = str(tmp_path / "episode.jsonl")
        events = soak.write_episode(spec, path)
        assert events == spec.ticks
        loaded = soak.read_episode(path)
        assert loaded == list(soak.generate_events(spec))

    def test_replayed_report_matches_generated(self):
        spec = soak.smoke_episode(SEED)
        direct = soak.run_episode(spec, byte_budget=BUDGET)
        replayed = soak.run_episode(
            spec, byte_budget=BUDGET,
            events=list(soak.generate_events(spec)))
        assert direct.envelope_ok == replayed.envelope_ok
        assert direct.max_space_bits == replayed.max_space_bits
        assert direct.evictions == replayed.evictions

    def test_artifact_records_seed_and_git_hash(self, tmp_path):
        spec = soak.smoke_episode(SEED)
        report = soak.run_episode(spec, byte_budget=BUDGET)
        path = soak.write_artifact(report, str(tmp_path))
        with open(path) as f:
            data = json.load(f)
        assert data["seed"] == SEED
        assert data["git_hash"] not in ("", None)
        assert data["rss_ceiling_kib"] > 0
        assert data["byte_budget"] == BUDGET


class TestSmokeEpisode:
    """The fast gate tier-1 CI runs on every push."""

    def test_smoke_episode_passes_all_gates(self):
        spec = soak.smoke_episode(SEED)
        report = soak.run_episode(spec, byte_budget=BUDGET)
        report.gate(min_envelope_rate=0.6)
        assert report.snapshot_roundtrip_ok
        assert report.evictions > 0  # The window actually rotated.
        assert report.items > 0

    def test_envelope_helper(self):
        assert soak.in_envelope(100.0, 100.0, 0.5)
        assert soak.in_envelope(150.0, 100.0, 0.5)
        assert not soak.in_envelope(151.0, 100.0, 0.5)
        assert not soak.in_envelope(50.0, 100.0, 0.5)
        assert soak.in_envelope(0.0, 0.0, 0.5)
        assert not soak.in_envelope(1.0, 0.0, 0.5)

    def test_byte_budget_violation_gates(self):
        spec = soak.smoke_episode(SEED)
        report = soak.run_episode(spec, byte_budget=1)  # Absurdly small.
        with pytest.raises(soak.SoakFailure):
            report.gate(min_envelope_rate=0.0)

    def test_unknown_mode_rejected(self):
        with pytest.raises(Exception):
            soak.run_episode(soak.smoke_episode(SEED), mode="carrier")


@pytest.mark.slow
class TestFullSweep:
    """Nightly gates: every sketch kind within its (eps, delta) band."""

    def test_all_kinds_hold_envelope(self, tmp_path):
        for spec in soak.standard_episodes(SEED):
            report = soak.run_episode(spec, byte_budget=BUDGET)
            soak.write_artifact(report, str(tmp_path))
            report.gate(min_envelope_rate=0.6)
            assert report.snapshot_roundtrip_ok, spec.name
            assert report.evictions > 0, spec.name

    def test_cli_entry_smoke(self, tmp_path, capsys):
        status = soak.main(["--seed", str(SEED), "--smoke", "--out",
                            str(tmp_path), "--byte-budget",
                            str(BUDGET)])
        assert status == 0
        assert (tmp_path / "soak-smoke.json").exists()
        assert "soak-smoke" in capsys.readouterr().out


@pytest.mark.slow
class TestServiceSoak:
    """The same episode through a live multi-process service."""

    def test_service_mode_passes_gates(self, tmp_path):
        spec = soak.smoke_episode(SEED)
        report = soak.run_episode(spec, mode="service",
                                  byte_budget=BUDGET, procs=2)
        soak.write_artifact(report, str(tmp_path))
        report.gate(min_envelope_rate=0.6)
        assert report.mode == "service"
        assert report.snapshot_roundtrip_ok

    def test_serial_sharded_service_bit_identical(self):
        """One episode, three transports, one final sketch state.

        Set semantics promise that any partition of the same writes
        merges to the same state: the serial in-process run, the merge
        of 3 replicas advanced in lock step and the live-service run
        (2 pre-fork workers reconciling through the delta log) must
        land on bit-identical ring contents and estimates.
        """
        from repro.service.client import ServiceClient
        from repro.service.multiproc import MultiprocFrontend
        from repro.service.router import Router

        spec = soak.smoke_episode(SEED)
        events = list(soak.generate_events(spec))

        serial = spec.build()
        for event in events:
            serial.advance(float(event["t"]))
            serial.process_batch([int(x) for x in event["items"]])

        replicas = [spec.build() for _ in range(3)]
        for j, event in enumerate(events):
            for replica in replicas:
                replica.advance(float(event["t"]))
            replicas[j % 3].process_batch(
                [int(x) for x in event["items"]])
        merged = replicas[0]
        for replica in replicas[1:]:
            merged.merge(replica)

        frontend = MultiprocFrontend(("127.0.0.1", 0), Router(),
                                     procs=2, delta_interval=0.0)
        frontend.start_background()
        try:
            client = ServiceClient(frontend.url)
            client.create(spec.name, kind=spec.kind,
                          universe_bits=spec.universe_bits,
                          eps=spec.eps, delta=spec.delta,
                          thresh_constant=spec.thresh_constant,
                          repetitions_constant=spec.repetitions_constant,
                          seed=spec.seed, window=spec.window,
                          buckets=spec.buckets)
            for event in events:
                client.advance(spec.name, float(event["t"]))
                items = [int(x) for x in event["items"]]
                if items:
                    client.ingest(spec.name, items)
            serviced = client.fetch(spec.name)
        finally:
            frontend.stop()

        assert merged.estimate() == serial.estimate()
        assert serviced.estimate() == serial.estimate()
        # Bit-identical ring contents: only the unmerged local
        # eviction counters may differ across transports.
        merged.evictions = serial.evictions
        serviced.evictions = serial.evictions
        assert dumps(merged) == dumps(serial)
        assert dumps(serviced) == dumps(serial)
