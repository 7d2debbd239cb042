"""Tests for the ``python -m repro`` command-line interface."""

import json

import pytest

from repro.__main__ import main


class TestCLI:
    def test_app_command(self, capsys):
        assert main(["app", "database", "--pages", "4"]) == 0
        out = capsys.readouterr().out
        assert "speedup" in out
        assert "database" in out

    def test_synth_command(self, capsys):
        assert main(["synth"]) == 0
        out = capsys.readouterr().out
        assert "MPEG-MMX" in out
        assert "205" in out  # Matrix LEs

    def test_yield_command(self, capsys):
        assert main(["yield"]) == 0
        out = capsys.readouterr().out
        assert "radram" in out and "processor" in out

    def test_yield_defect_density_flag(self, capsys):
        assert main(["yield", "--defects", "0.2"]) == 0
        out = capsys.readouterr().out
        assert "dram" in out

    def test_power_command(self, capsys):
        assert main(["power"]) == 0
        out = capsys.readouterr().out
        assert "512" in out

    def test_trace_command(self, capsys):
        assert main(["trace", "matrix-simplex", "--pages", "4"]) == 0
        out = capsys.readouterr().out
        assert "page " in out and "processor" in out

    def test_trace_reports_event_totals(self, capsys):
        assert main(["trace", "matrix-simplex", "--pages", "4"]) == 0
        out = capsys.readouterr().out
        assert "trace:" in out and "events" in out

    def test_trace_fig6_exports_perfetto_json(self, capsys, tmp_path):
        out_file = tmp_path / "trace.json"
        assert main(["trace", "fig6", "--out", str(out_file)]) == 0
        doc = json.loads(out_file.read_text())
        assert doc["traceEvents"]
        phases = {e["ph"] for e in doc["traceEvents"]}
        assert {"M", "X"} <= phases  # track metadata + spans
        names = {
            e["args"]["name"]
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert "cpu" in names
        assert any(n.startswith("page/") for n in names)

    def test_trace_app_exports_json_and_csv(self, capsys, tmp_path):
        json_file = tmp_path / "t.json"
        csv_file = tmp_path / "t.csv"
        assert (
            main(
                [
                    "trace", "database", "--pages", "4",
                    "--out", str(json_file), "--csv", str(csv_file),
                ]
            )
            == 0
        )
        assert json.loads(json_file.read_text())["traceEvents"]
        lines = csv_file.read_text().splitlines()
        assert lines[0] == "ph,track,name,ts_ns,dur_ns,args"
        assert len(lines) > 1

    def test_trace_rejects_non_fig6_experiments(self, capsys):
        with pytest.raises(SystemExit):
            main(["trace", "fig3"])

    def test_report_only_subset(self, capsys):
        assert main(["report", "--quick", "--only", "table-3"]) == 0
        out = capsys.readouterr().out
        assert "table-3" in out

    def test_unknown_app_rejected(self):
        with pytest.raises(SystemExit):
            main(["app", "nonexistent"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            main([])


class TestSweepCLI:
    """The harness-facing surface: aliases, --jobs, --no-cache, cache."""

    def test_experiment_alias_runs_one_experiment(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "table-2" in out
        assert "figure-3" not in out

    def test_fig_alias_reports_harness_counters(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        assert main(["fig8", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "figure-8" in out
        assert "harness:" in out

    def test_no_cache_flag_leaves_no_cache_dir(self, capsys, monkeypatch, tmp_path):
        cache_dir = tmp_path / "cache"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(cache_dir))
        assert main(["fig8", "--quick", "--no-cache"]) == 0
        assert not cache_dir.exists()

    def test_jobs_flag_accepted(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        assert main(["fig8", "--quick", "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "jobs=2" in out

    def test_trace_summary_flag_caches_trace_digests(
        self, capsys, monkeypatch, tmp_path
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        assert main(["fig9", "--quick", "--trace-summary"]) == 0
        from repro.experiments import harness

        cache = harness.ResultCache(tmp_path / "cache")
        entries = cache.entries()
        assert entries
        payload = json.loads(entries[0].read_text())
        assert any(k.startswith("trace.") for k in payload["values"])

    def test_cache_info_and_clear(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        assert main(["fig8", "--quick"]) == 0
        capsys.readouterr()
        assert main(["cache"]) == 0
        out = capsys.readouterr().out
        assert "entries:" in out and "entries:   0" not in out
        assert main(["cache", "--clear"]) == 0
        capsys.readouterr()
        assert main(["cache"]) == 0
        assert "entries:   0" in capsys.readouterr().out

    def test_cache_stats_action(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        assert main(["fig8", "--quick"]) == 0
        capsys.readouterr()
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert "entries:" in out and "entries:   0" not in out
        assert "schema 4:" in out
        assert "oldest:" in out and "newest:" in out

    def test_cache_clear_action(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        assert main(["fig8", "--quick"]) == 0
        capsys.readouterr()
        assert main(["cache", "clear"]) == 0
        assert "removed" in capsys.readouterr().out
        assert main(["cache"]) == 0
        assert "entries:   0" in capsys.readouterr().out

    def test_cache_prune_action(self, capsys, monkeypatch, tmp_path):
        import os

        from repro.experiments import harness

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        assert main(["fig8", "--quick"]) == 0
        capsys.readouterr()
        # Fresh entries survive a prune...
        assert main(["cache", "prune", "--days", "7"]) == 0
        assert "pruned 0 entries" in capsys.readouterr().out
        # ...but aged ones are dropped.
        cache = harness.ResultCache(tmp_path / "cache")
        for entry in cache.entries():
            old = os.path.getmtime(entry) - 8 * 86400
            os.utime(entry, (old, old))
        assert main(["cache", "prune", "--days", "7"]) == 0
        out = capsys.readouterr().out
        assert "pruned" in out and "pruned 0 entries" not in out
        assert main(["cache"]) == 0
        assert "entries:   0" in capsys.readouterr().out

    def test_submit_without_server_exits_seven(self, capsys):
        from repro.serve.client import EXIT_CONNECT

        # Port 9 (discard) is never a sweep server; connection fails fast.
        assert (
            main(
                ["submit", "health", "--base-url", "http://127.0.0.1:9"]
            )
            == EXIT_CONNECT
        )
        assert "cannot reach server" in capsys.readouterr().err
