"""CLI surface: cache commands, size parsing, retired commands."""

import argparse

import pytest

from repro.cli import build_parser, main, parse_size
from repro.sim.cache import RunCache


class TestParseSize:
    def test_plain_bytes(self):
        assert parse_size("1048576") == 1 << 20

    def test_suffixes(self):
        assert parse_size("500M") == 500 * (1 << 20)
        assert parse_size("2G") == 2 << 30
        assert parse_size("1k") == 1 << 10

    def test_fractional(self):
        assert parse_size("1.5K") == 1536

    def test_rejects_garbage(self):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_size("lots")
        with pytest.raises(argparse.ArgumentTypeError):
            parse_size("-5M")

    @pytest.mark.parametrize("text", ["inf", "1e400", "nan", "-inf", "infM"])
    def test_rejects_non_finite(self, text):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_size(text)


class TestCacheCommands:
    def test_stats_and_prune_round_trip(self, tmp_path, capsys):
        cache = RunCache(tmp_path)
        for i in range(3):
            cache.put(f"{i:02x}" * 32, list(range(1000)))
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "entries:     3" in out
        assert main([
            "cache", "prune", "--max-bytes", "0",
            "--cache-dir", str(tmp_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "removed 3" in out
        assert len(RunCache(tmp_path)) == 0

    def test_prune_requires_budget(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cache", "prune"])


class TestParserWiring:
    @pytest.mark.parametrize("argv", [
        ["submit", "fig11"],
        ["bench-serve"],
        ["serve", "--queue-depth", "4"],
        ["serve", "--workers", "2"],
        ["serve", "--jobs", "2"],
        ["serve", "--retry-after", "1"],
        ["serve", "--no-cache"],
        ["serve", "--cache-url", "http://127.0.0.1:8377"],
        ["sweep", "--submit"],
        ["sweep", "--stream"],
        ["sweep", "--host", "127.0.0.1"],
        ["sweep", "--port", "8377"],
        ["bench-suite"],
        ["bench", "--workload", "svm"],
        ["bench", "--trace-len", "10"],
        ["bench", "--min-walk-speedup", "2"],
        ["bench", "--min-fault-speedup", "5"],
        ["chaos-soak", "--quick"],
        ["run", "fig9", "--chaos-plan", "0.2"],
        ["suite", "--chaos-seed", "1"],
        ["serve", "--chaos-plan", "0.1"],
        ["sweep", "--chaos-plan", "0.1"],
        ["serve"],
        ["run", "fig9", "--cache-url", "http://127.0.0.1:8377"],
        ["suite", "--cache-url", "http://127.0.0.1:8377"],
        ["sweep", "--cache-url", "http://127.0.0.1:8377"],
    ])
    def test_retired_job_api_surface_is_gone(self, argv):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
