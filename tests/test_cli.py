"""Tests for the command-line interface."""

import pytest

from repro.harness.cli import main


class TestExperimentCommand:
    def test_list(self, capsys):
        assert main(["experiment", "list"]) == 0
        assert "table5.1" in capsys.readouterr().out

    def test_backcompat_bare_id(self, capsys):
        assert main(["list"]) == 0
        assert "figure5.8" in capsys.readouterr().out

    def test_runs_cheap_experiment(self, capsys):
        assert main(["bitonic-min"]) == 0
        assert "Algorithm 2" in capsys.readouterr().out

    def test_unknown_experiment_raises(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            main(["experiment", "table99"])


class TestSortCommand:
    def test_smart_sort(self, capsys):
        assert main(["sort", "--keys", "1024", "--procs", "8"]) == 0
        out = capsys.readouterr().out
        assert "sorted and verified" in out
        assert "remaps R = " in out

    def test_short_messages(self, capsys):
        assert main(["sort", "--keys", "512", "--procs", "4",
                     "--messages", "short"]) == 0
        assert "smart[short-msg" in capsys.readouterr().out

    def test_other_algorithms(self, capsys):
        for algo in ("cyclic-blocked", "blocked-merge", "radix", "sample"):
            assert main(["sort", "--keys", "512", "--procs", "4",
                         "--algorithm", algo]) == 0

    def test_unknown_algorithm(self, capsys):
        assert main(["sort", "--keys", "512", "--procs", "4",
                     "--algorithm", "bogo"]) == 2

    def test_distribution_option(self, capsys):
        assert main(["sort", "--keys", "512", "--procs", "4",
                     "--distribution", "low-entropy"]) == 0


class TestOtherCommands:
    def test_schedule(self, capsys):
        assert main(["schedule", "--keys", "256", "--procs", "16"]) == 0
        out = capsys.readouterr().out
        assert "bits_changed=1" in out
        assert "R0" in out

    def test_predict(self, capsys):
        assert main(["predict", "--keys", "1048576", "--procs", "32"]) == 0
        out = capsys.readouterr().out
        assert "smart" in out and "blocked-merge" in out

    def test_fft(self, capsys):
        assert main(["fft", "--points", "1024", "--procs", "8"]) == 0
        assert "verified against np.fft.fft" in capsys.readouterr().out

    def test_gantt(self, capsys):
        assert main(["gantt", "--keys", "4096", "--procs", "4",
                     "--width", "40"]) == 0
        out = capsys.readouterr().out
        assert "P0" in out and "makespan" in out

    def test_gantt_unknown_algorithm(self, capsys):
        assert main(["gantt", "--keys", "4096", "--procs", "4",
                     "--algorithm", "x"]) == 2

    def test_gantt_column_sort(self, capsys):
        assert main(["gantt", "--keys", "8192", "--procs", "4",
                     "--algorithm", "column", "--width", "40"]) == 0

    def test_no_command_prints_help(self, capsys):
        assert main(["--help"][:0]) == 2  # empty argv
        assert "repro-bitonic" in capsys.readouterr().out


class TestServiceCommands:
    def test_submit_plans_and_sorts(self, capsys):
        assert main(["submit", "--keys", "2048"]) == 0
        out = capsys.readouterr().out
        assert "plan:" in out and "verified" in out

    def test_submit_forced_P_and_trace(self, tmp_path, capsys):
        trace = tmp_path / "req.json"
        assert main([
            "submit", "--keys", "2048", "--procs", "2", "--trace", str(trace),
        ]) == 0
        assert trace.exists()
        assert "threads x 2" in capsys.readouterr().out

    def test_serve_small_soak_no_leaks(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main([
            "serve", "--requests", "8", "--sizes", "1024",
            "--trace-every", "4",
            "--traces-dir", str(tmp_path / "traces"),
        ]) == 0
        out = capsys.readouterr().out
        assert "soak ok" in out and "zero leaks" in out
        assert (tmp_path / "traces").is_dir()
