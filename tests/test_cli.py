"""Tests for the command-line interface."""

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


class TestServeCli:
    def test_self_test_round_trip(self, capsys, watchdog):
        code = main(["serve", "--self-test", "-n", "48",
                     "--scheme", "dsa-512"])
        out = capsys.readouterr().out
        assert code == 0
        assert "serving 0 enrolled record(s)" in out
        assert "identified=True" in out
        assert "verified=True" in out

    def test_self_test_serial_mode(self, capsys, watchdog):
        code = main(["serve", "--self-test", "--serial", "-n", "48",
                     "--scheme", "dsa-512"])
        out = capsys.readouterr().out
        assert code == 0
        assert "serial server" in out
        assert "verified=True" in out

    def test_self_test_from_saved_store(self, capsys, tmp_path, watchdog,
                                        paper_params):
        from repro.engine.engine import IdentificationEngine

        store = tmp_path / "serve-store"
        engine = IdentificationEngine(paper_params, shards=2)
        engine.save(store)
        engine.close()
        code = main(["serve", "--self-test", "--store", str(store),
                     "--scheme", "dsa-512"])
        out = capsys.readouterr().out
        assert code == 0
        assert "verified=True" in out

    def test_bad_store_fails_cleanly(self, capsys, tmp_path):
        assert main(["serve", "--store", str(tmp_path / "nope"),
                     "--self-test"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 0
        assert not args.serial
        assert not args.self_test
