"""Tests for the command-line interface."""

import random

import pytest

from repro.cli import main
from repro.formulas.dimacs import write_dimacs_cnf, write_dimacs_dnf
from repro.formulas.generators import fixed_count_dnf, random_dnf, random_k_cnf
from repro.formulas.cnf import CnfFormula


@pytest.fixture
def dnf_file(tmp_path):
    formula = fixed_count_dnf(10, 6)  # Exactly 64 models.
    path = tmp_path / "formula.dnf"
    path.write_text(write_dimacs_dnf(formula))
    return str(path)


@pytest.fixture
def cnf_file(tmp_path):
    formula = CnfFormula(8, [[1], [2, 3]])
    path = tmp_path / "formula.cnf"
    path.write_text(write_dimacs_cnf(formula))
    return str(path)


class TestCountCommand:
    def test_exact(self, dnf_file, capsys):
        assert main(["count", dnf_file, "--algorithm", "exact"]) == 0
        assert capsys.readouterr().out.strip() == "64"

    @pytest.mark.parametrize("algorithm",
                             ["bucketing", "minimum", "karp-luby"])
    def test_approximate_algorithms(self, dnf_file, capsys, algorithm):
        code = main(["count", dnf_file, "--algorithm", algorithm,
                     "--eps", "0.5", "--thresh-constant", "24",
                     "--repetitions-constant", "5"])
        assert code == 0
        estimate = float(capsys.readouterr().out.strip())
        assert 64 / 1.5 <= estimate <= 64 * 1.5

    def test_cnf_counting(self, cnf_file, capsys):
        code = main(["count", cnf_file, "--algorithm", "bucketing",
                     "--thresh-constant", "24",
                     "--repetitions-constant", "4"])
        assert code == 0
        estimate = float(capsys.readouterr().out.strip())
        # Exact count: 1 * 3 * 2^5 / ... x1 pinned, (2 or 3): 3 of 4 -> 96.
        assert 40 <= estimate <= 200

    def test_karp_luby_rejects_cnf(self, cnf_file):
        with pytest.raises(SystemExit):
            main(["count", cnf_file, "--algorithm", "karp-luby"])

    def test_missing_problem_line(self, tmp_path):
        path = tmp_path / "bad.cnf"
        path.write_text("c just a comment\n")
        with pytest.raises(SystemExit):
            main(["count", str(path)])


class TestSampleCommand:
    def test_samples_are_models(self, dnf_file, capsys, tmp_path):
        assert main(["sample", dnf_file, "--count", "5"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 5
        formula = fixed_count_dnf(10, 6)
        for line in out:
            lits = [int(t) for t in line.split()][:-1]
            model = 0
            for lit in lits:
                if lit > 0:
                    model |= 1 << (lit - 1)
            assert formula.evaluate(model)


class TestOracleSelection:
    def test_count_oracle_backends_agree(self, cnf_file, capsys):
        estimates = {}
        for backend in ["cdcl", "bruteforce"]:
            code = main(["count", cnf_file, "--algorithm", "bucketing",
                         "--oracle", backend,
                         "--thresh-constant", "24",
                         "--repetitions-constant", "4"])
            assert code == 0
            estimates[backend] = capsys.readouterr().out.strip()
        assert estimates["cdcl"] == estimates["bruteforce"]

    def test_sample_with_oracle(self, cnf_file, capsys):
        assert main(["sample", cnf_file, "--count", "2",
                     "--oracle", "bruteforce"]) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 2

    def test_unknown_oracle_rejected(self, cnf_file):
        with pytest.raises(SystemExit):
            main(["count", cnf_file, "--oracle", "no-such-solver"])


class TestWorkersValidation:
    def test_negative_workers_friendly_error(self, cnf_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["count", cnf_file, "--workers", "-1"])
        assert exc.value.code == 2  # argparse usage error, not a traceback
        assert "workers must be >= 0" in capsys.readouterr().err

    def test_non_integer_workers_friendly_error(self, tmp_path, capsys):
        items = tmp_path / "items.txt"
        items.write_text("1\n")
        with pytest.raises(SystemExit) as exc:
            main(["f0", str(items), "--universe-bits", "4",
                  "--workers", "two"])
        assert exc.value.code == 2
        assert "invalid" in capsys.readouterr().err


class TestInputValidation:
    def test_chunk_size_zero_friendly_error(self, tmp_path, capsys):
        path = tmp_path / "items.txt"
        path.write_text("1\n2\n")
        with pytest.raises(SystemExit) as exc:
            main(["f0", str(path), "--universe-bits", "4",
                  "--chunk-size", "0"])
        assert exc.value.code == 2  # argparse usage error, not a traceback
        assert "chunk size must be a positive" in capsys.readouterr().err

    def test_chunk_size_negative_friendly_error(self, tmp_path, capsys):
        path = tmp_path / "items.txt"
        path.write_text("1\n")
        with pytest.raises(SystemExit) as exc:
            main(["f0", str(path), "--universe-bits", "4",
                  "--chunk-size", "-5"])
        assert exc.value.code == 2
        assert "chunk size must be a positive" in capsys.readouterr().err

    def test_chunk_size_non_integer_friendly_error(self, tmp_path, capsys):
        path = tmp_path / "items.txt"
        path.write_text("1\n")
        with pytest.raises(SystemExit) as exc:
            main(["f0", str(path), "--universe-bits", "4",
                  "--chunk-size", "many"])
        assert exc.value.code == 2
        assert "invalid int value" in capsys.readouterr().err

    def test_missing_items_file_friendly_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["f0", "no-such-items.txt", "--universe-bits", "4"])
        assert exc.value.code == 2
        assert "no such file" in capsys.readouterr().err

    def test_missing_formula_file_friendly_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["count", "no-such-formula.cnf"])
        assert exc.value.code == 2
        assert "no such file" in capsys.readouterr().err

    def test_missing_sample_formula_friendly_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sample", "no-such-formula.cnf"])
        assert exc.value.code == 2
        assert "no such file" in capsys.readouterr().err


class TestServiceVerbs:
    @pytest.fixture
    def server(self):
        from repro.service import F0Server
        srv = F0Server(("127.0.0.1", 0)).start_background()
        yield srv
        srv.stop()

    def test_push_create_then_query(self, server, tmp_path, capsys):
        items = [random.Random(3).getrandbits(12) for _ in range(500)]
        path = tmp_path / "items.txt"
        path.write_text("\n".join(str(x) for x in items))
        code = main(["push", "clicks", str(path), "--server", server.url,
                     "--create", "--universe-bits", "12", "--eps", "0.5",
                     "--thresh-constant", "24",
                     "--repetitions-constant", "5"])
        assert code == 0
        pushed = float(capsys.readouterr().out.strip())
        truth = len(set(items))
        assert truth / 1.5 <= pushed <= truth * 1.5

        assert main(["query", "clicks", "--server", server.url]) == 0
        assert float(capsys.readouterr().out.strip()) == pushed

        assert main(["query", "clicks", "--server", server.url,
                     "--info"]) == 0
        assert "kind: MinimumF0" in capsys.readouterr().out

    def test_query_unknown_sketch_exits_with_message(self, server):
        with pytest.raises(SystemExit) as exc:
            main(["query", "missing", "--server", server.url])
        assert "404" in str(exc.value.code)

    def test_push_create_needs_universe_bits(self, server, tmp_path):
        path = tmp_path / "items.txt"
        path.write_text("1\n")
        with pytest.raises(SystemExit) as exc:
            main(["push", "x", str(path), "--server", server.url,
                  "--create"])
        assert "universe-bits" in str(exc.value.code)

    def test_push_parallel_workers_matches_serial(self, server, tmp_path,
                                                  capsys):
        items = [random.Random(7).getrandbits(12) for _ in range(800)]
        path = tmp_path / "items.txt"
        path.write_text("\n".join(str(x) for x in items))
        create = ["--create", "--universe-bits", "12", "--eps", "0.5",
                  "--thresh-constant", "24", "--repetitions-constant", "5"]
        assert main(["push", "serial", str(path), "--server", server.url]
                    + create) == 0
        serial_out = capsys.readouterr()
        assert main(["push", "fanned", str(path), "--server", server.url,
                     "--workers", "2"] + create) == 0
        parallel_out = capsys.readouterr()
        # Sketch ingestion is order-independent: the sharded parallel
        # push must land on the same estimate as the serial one, and
        # both report throughput on stderr without polluting stdout.
        assert parallel_out.out.strip() == serial_out.out.strip()
        for captured in (serial_out, parallel_out):
            assert "items/s" in captured.err
            assert "pushed 800 items" in captured.err

    def test_rebalance_verb_moves_frames(self, capsys):
        from repro.service import F0Server, ServiceClient

        nodes = [F0Server(("127.0.0.1", 0)).start_background()
                 for _ in range(2)]
        try:
            seed_client = ServiceClient(nodes[0].url)
            for name in ("a", "b", "c"):
                seed_client.create(name, kind="minimum", universe_bits=10,
                                   eps=0.7, thresh_constant=12,
                                   repetitions_constant=3, seed=4)
                seed_client.ingest(name, list(range(50)))
            code = main(["rebalance", "--from", nodes[0].url,
                         "--to", f"{nodes[0].url},{nodes[1].url}",
                         "--replication", "1"])
            assert code == 0
            captured = capsys.readouterr()
            assert "moved" in captured.out
            assert "3 sketch(es)" in captured.out
        finally:
            for node in nodes:
                node.stop()

    def test_rebalance_needs_urls(self):
        with pytest.raises(SystemExit) as exc:
            main(["rebalance", "--from", " ", "--to", "http://h:1"])
        assert "comma-separated" in str(exc.value.code)


class TestServeFlags:
    def test_unknown_frontend_friendly_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--frontend", "bogus"])
        assert exc.value.code == 2  # argparse usage error, not a traceback
        err = capsys.readouterr().err
        assert "unknown front end 'bogus'" in err
        assert "repro list" in err

    def test_procs_negative_friendly_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--frontend", "multiproc", "--procs", "-2"])
        assert exc.value.code == 2
        assert "procs must be >= 0" in capsys.readouterr().err

    def test_procs_non_integer_friendly_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--frontend", "multiproc", "--procs", "two"])
        assert exc.value.code == 2
        assert "invalid int value" in capsys.readouterr().err

    def test_procs_rejects_non_multiproc_frontend(self):
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--frontend", "threading", "--procs", "2"])
        assert "--procs only applies" in str(exc.value.code)

    def test_delta_interval_rejects_non_multiproc_frontend(self):
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--delta-interval", "0.1"])
        assert "--delta-interval only applies" in str(exc.value.code)

    def test_cluster_needs_urls(self):
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--cluster", " , "])
        assert "comma-separated" in str(exc.value.code)

    def test_cluster_rejects_store_flags(self):
        for flag in (["--snapshot", "x.bin"], ["--restore"],
                     ["--snapshot-on-exit", "x.bin"]):
            with pytest.raises(SystemExit) as exc:
                main(["serve", "--cluster", "http://h1:1"] + flag)
            assert "per-node" in str(exc.value.code), flag


class TestListVerb:
    def test_list_prints_every_registry(self, capsys, monkeypatch):
        from repro.kernels import KERNELS

        monkeypatch.setattr(KERNELS, "entries", dict(KERNELS.entries))
        KERNELS.register("test-missing-dep", lambda: None,
                         available=False,
                         unavailable_reason="dependency not installed")
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for section in ("oracle backends (--oracle)", "kernels (--kernel;",
                        "executors (--executor;", "front ends (--frontend;"):
            assert section in out
        for default in ("cdcl (default):", "python (default):",
                        "auto (default):", "threading (default):"):
            assert default in out
        assert "bruteforce:" in out and "multiproc:" in out
        assert "[unavailable: dependency not installed]" in out
        assert "[releases GIL]" in out  # numba, listed even when missing.
        assert "resolved: auto (default)" in out
        assert "auto-pick (heuristic)" in out

    def test_list_reports_env_source(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR", "thread")
        assert main(["list"]) == 0
        assert "resolved: thread (from REPRO_EXECUTOR)" in \
            capsys.readouterr().out

    def test_old_listing_verbs_are_gone(self):
        for verb in ("backends", "kernels", "frontends"):
            with pytest.raises(SystemExit) as exc:
                main([verb])
            assert exc.value.code == 2


class TestEnvResolution:
    """REPRO_FRONTEND / REPRO_PROCS / REPRO_KERNEL resolve the same way:
    explicit argument > process-wide override > environment > default."""

    def test_frontend_resolution_order(self, monkeypatch):
        from repro.service.frontends import (
            DEFAULT_FRONTEND,
            resolve_frontend_name,
            set_default_frontend,
        )

        monkeypatch.delenv("REPRO_FRONTEND", raising=False)
        assert resolve_frontend_name(None) == DEFAULT_FRONTEND
        monkeypatch.setenv("REPRO_FRONTEND", "multiproc")
        assert resolve_frontend_name(None) == "multiproc"
        set_default_frontend("threading")
        try:
            assert resolve_frontend_name(None) == "threading"
            assert resolve_frontend_name("multiproc") == "multiproc"
        finally:
            set_default_frontend(None)

    def test_asyncio_frontend_refused(self, monkeypatch, capsys):
        """The asyncio front end is gone: the flag and the environment
        variable both fail with the registry's unknown-name message."""
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--port", "0", "--frontend", "asyncio"])
        assert exc.value.code == 2
        assert "unknown front end 'asyncio'" in capsys.readouterr().err
        monkeypatch.setenv("REPRO_FRONTEND", "asyncio")
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--port", "0"])
        assert "REPRO_FRONTEND='asyncio' names an unknown front end" \
            in str(exc.value.code)

    def test_procs_resolution_order(self, monkeypatch):
        from repro.service.frontends import (
            DEFAULT_PROCS,
            resolve_procs,
            set_default_procs,
        )

        monkeypatch.delenv("REPRO_PROCS", raising=False)
        assert resolve_procs(None) == DEFAULT_PROCS
        monkeypatch.setenv("REPRO_PROCS", "6")
        assert resolve_procs(None) == 6
        set_default_procs(3)
        try:
            assert resolve_procs(None) == 3
            assert resolve_procs(1) == 1
        finally:
            set_default_procs(None)

    def test_kernel_resolution_order(self, monkeypatch):
        from repro.kernels import (
            DEFAULT_KERNEL,
            resolve_kernel_name,
            set_default_kernel,
        )

        monkeypatch.delenv("REPRO_KERNEL", raising=False)
        assert resolve_kernel_name(None) == DEFAULT_KERNEL
        monkeypatch.setenv("REPRO_KERNEL", "numba")
        assert resolve_kernel_name(None) == "numba"
        set_default_kernel("python")
        try:
            assert resolve_kernel_name(None) == "python"
            assert resolve_kernel_name("numba") == "numba"
        finally:
            set_default_kernel(None)

    def test_bad_frontend_env_friendly_serve_error(self, monkeypatch):
        monkeypatch.setenv("REPRO_FRONTEND", "bogus")
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--port", "0", "--quiet"])
        message = str(exc.value.code)
        assert "REPRO_FRONTEND" in message
        assert "unknown front end" in message

    def test_bad_procs_env_friendly_serve_error(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROCS", "many")
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--frontend", "multiproc", "--port", "0",
                  "--quiet"])
        message = str(exc.value.code)
        assert "REPRO_PROCS" in message
        assert "non-negative integer" in message


class TestBadEnvVar:
    """A bad REPRO_KERNEL / REPRO_EXECUTOR is a one-line exit naming the
    variable, even when the command would fan out over a worker pool."""

    @pytest.mark.parametrize("env_var", ["REPRO_KERNEL", "REPRO_EXECUTOR"])
    @pytest.mark.parametrize("verb", ["count", "f0"])
    def test_bad_env_value_exits_naming_the_variable(
            self, monkeypatch, cnf_file, tmp_path, env_var, verb):
        items = tmp_path / "items.txt"
        items.write_text("1\n2\n")
        argv = (["count", cnf_file] if verb == "count"
                else ["f0", str(items), "--universe-bits", "4"])
        monkeypatch.setenv(env_var, "bogus")
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--workers", "2"])
        message = str(exc.value.code)
        assert f"{env_var}='bogus'" in message
        assert "registered:" in message


class TestF0Command:
    def test_f0_estimate(self, tmp_path, capsys):
        rng = random.Random(0)
        items = [rng.getrandbits(12) for _ in range(400)]
        truth = len(set(items))
        path = tmp_path / "items.txt"
        path.write_text("\n".join(str(x) for x in items))
        code = main(["f0", str(path), "--universe-bits", "12",
                     "--sketch", "minimum", "--eps", "0.5",
                     "--thresh-constant", "24",
                     "--repetitions-constant", "5"])
        assert code == 0
        estimate = float(capsys.readouterr().out.strip())
        assert truth / 1.5 <= estimate <= truth * 1.5

    def test_requires_universe_bits(self, tmp_path):
        path = tmp_path / "items.txt"
        path.write_text("1\n2\n")
        with pytest.raises(SystemExit):
            main(["f0", str(path)])
