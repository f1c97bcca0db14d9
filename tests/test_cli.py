"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_report_defaults_are_paper_values(self):
        args = build_parser().parse_args(["report"])
        assert (args.unit, args.units_per_interval, args.intervals,
                args.threshold, args.dimension) == (100, 4, 500, 100, 5000)

    def test_short_flags(self):
        args = build_parser().parse_args(
            ["report", "-a", "10", "-k", "8", "-v", "20", "-t", "30",
             "-n", "64"])
        assert (args.unit, args.units_per_interval, args.intervals,
                args.threshold, args.dimension) == (10, 8, 20, 30, 64)


class TestReport:
    def test_prints_table(self, capsys):
        assert main(["report", "-n", "5000"]) == 0
        out = capsys.readouterr().out
        assert "44,829 bits" in out
        assert "Rep. Range" in out
        assert "[-100000, 100000]" in out

    def test_invalid_parameters_exit_2(self, capsys):
        assert main(["report", "-t", "99999"]) == 2
        assert "error:" in capsys.readouterr().err


class TestAdvise:
    def test_prints_dimension(self, capsys):
        assert main(["advise", "--target-bits", "80"]) == 0
        out = capsys.readouterr().out
        assert "n >= 81" in out
        assert "residual key entropy" in out

    def test_respects_geometry(self, capsys):
        # k=8 gives ~2 bits/coordinate -> roughly half the dimension.
        assert main(["advise", "-k", "8", "--target-bits", "80"]) == 0
        out = capsys.readouterr().out
        assert "n >= 41" in out


class TestDemo:
    def test_end_to_end(self, capsys):
        code = main(["demo", "-n", "100", "--users", "3",
                     "--scheme", "dsa-512"])
        assert code == 0
        out = capsys.readouterr().out
        assert "identified=True" in out
        assert "identified=False" in out  # the stranger

    def test_unknown_scheme_fails_cleanly(self, capsys):
        assert main(["demo", "--scheme", "rsa-types"]) == 2
        assert "error:" in capsys.readouterr().err


class TestEngineBench:
    def test_runs_and_reports(self, capsys):
        code = main(["engine-bench", "--records", "300", "--probes", "8",
                     "-n", "16", "--shards", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "probes/s" in out
        assert "speedup vs loop" in out
        assert "300 records" in out

    def test_defaults(self):
        args = build_parser().parse_args(["engine-bench"])
        assert (args.records, args.probes, args.shards,
                args.dimension) == (10_000, 64, 4, 128)

    def test_bad_parameters_exit_2(self, capsys):
        assert main(["engine-bench", "--records", "0"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_sign_scheme_appends_round_trip(self, capsys):
        code = main(["engine-bench", "--records", "300", "--probes", "8",
                     "-n", "16", "--shards", "2",
                     "--sign-scheme", "dsa-512"])
        assert code == 0
        out = capsys.readouterr().out
        assert "signature round-trip [dsa-512]" in out
        assert "full flow" in out

    def test_unknown_sign_scheme_exits_2(self, capsys):
        assert main(["engine-bench", "--records", "300", "--probes", "8",
                     "-n", "16", "--sign-scheme", "rsa-4096"]) == 2
        assert "error:" in capsys.readouterr().err


class TestCryptoBench:
    def test_runs_reports_and_writes_trajectory(self, capsys, tmp_path):
        artifact = tmp_path / "BENCH_crypto.json"
        code = main(["crypto-bench", "--iterations", "2",
                     "--schemes", "dsa-512",
                     "--identify-scheme", "dsa-512",
                     "--users", "2", "--requests", "2", "-n", "64",
                     "--json", str(artifact)])
        assert code == 0
        out = capsys.readouterr().out
        assert "scalar multiplication" in out
        assert "dsa-512" in out
        assert "identify end-to-end" in out
        data = json.loads(artifact.read_text())
        assert len(data["runs"]) == 1
        run = data["runs"][0]
        assert run["scalar_mult_speedup"] > 1.0
        assert "dsa-512" in run["verify_speedups"]

    def test_trajectory_appends_across_runs(self, tmp_path, capsys):
        artifact = tmp_path / "BENCH_crypto.json"
        args = ["crypto-bench", "--iterations", "2", "--schemes", "dsa-512",
                "--no-identify", "--json", str(artifact)]
        assert main(args) == 0
        assert main(args) == 0
        capsys.readouterr()
        assert len(json.loads(artifact.read_text())["runs"]) == 2

    def test_empty_json_skips_artifact(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main(["crypto-bench", "--iterations", "2",
                     "--schemes", "dsa-512", "--no-identify", "--json", ""])
        assert code == 0
        assert not (tmp_path / "BENCH_crypto.json").exists()

    def test_unknown_scheme_exits_2(self, capsys):
        assert main(["crypto-bench", "--schemes", "rsa-4096",
                     "--no-identify"]) == 2
        assert "error:" in capsys.readouterr().err


class TestSimulate:
    def test_engine_store_reports_counters(self, capsys):
        code = main(["simulate", "-n", "100", "--users", "3",
                     "--requests", "6", "--scheme", "dsa-512",
                     "--engine-shards", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "throughput" in out
        assert "probes served: 6" in out
        assert "latency histogram" in out

    def test_runs_and_reports(self, capsys):
        code = main(["simulate", "-n", "100", "--users", "3",
                     "--requests", "12", "--scheme", "dsa-512",
                     "--genuine", "0.7", "--stranger", "0.2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "throughput" in out
        assert "12 requests" in out
        assert "probes served: 12" in out  # engine counters by default

    def test_bad_mix_fails_cleanly(self, capsys):
        assert main(["simulate", "--genuine", "0.9", "--stranger", "0.9",
                     "--scheme", "dsa-512", "-n", "100"]) == 2
        assert "error:" in capsys.readouterr().err


class TestServiceBench:
    _SMALL = ["service-bench", "--users", "1500", "--pool-users", "6",
              "--requests", "24", "--clients", "6", "-n", "64",
              "--scheme", "dsa-512", "--window-ms", "10", "--linger-ms", "1"]

    def test_runs_reports_and_writes_trajectory(self, capsys, tmp_path,
                                                watchdog):
        artifact = tmp_path / "BENCH_service.json"
        code = main(self._SMALL + ["--json", str(artifact)])
        assert code == 0
        out = capsys.readouterr().out
        assert "service bench: 1,500 enrolled" in out
        assert "serial loop" in out and "frontend" in out
        assert "speedup" in out
        data = json.loads(artifact.read_text())
        assert len(data["runs"]) == 1
        run = data["runs"][0]
        assert run["n_enrolled"] == 1500
        assert run["serial_ids_per_s"] > 0
        assert run["frontend_ids_per_s"] > 0
        assert len(run["frontend_latency_ms"]) == 3

    def test_empty_json_skips_artifact(self, capsys, tmp_path, monkeypatch,
                                       watchdog):
        monkeypatch.chdir(tmp_path)
        assert main(self._SMALL + ["--json", ""]) == 0
        assert not (tmp_path / "BENCH_service.json").exists()

    def test_bad_parameters_exit_2(self, capsys):
        assert main(["service-bench", "--users", "4",
                     "--pool-users", "8"]) == 2
        assert "error:" in capsys.readouterr().err


class TestSimulateFrontend:
    def test_frontend_routing_reports_batches(self, capsys, watchdog):
        code = main(["simulate", "-n", "100", "--users", "3",
                     "--requests", "8", "--scheme", "dsa-512",
                     "--engine-shards", "2", "--frontend"])
        assert code == 0
        out = capsys.readouterr().out
        assert "throughput" in out
        assert "probes served: 8" in out       # engine counters intact
        assert "identification micro-batches" in out
