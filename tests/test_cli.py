"""End-to-end tests of the command-line interface (repro.cli)."""

import json

import pytest

from repro.cli import build_parser, main
from repro.core.execution import available_backends


class TestParser:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert "ses-repro" in capsys.readouterr().out

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_parser_knows_all_subcommands(self):
        parser = build_parser()
        text = parser.format_help()
        for command in ("generate", "solve", "experiment", "list", "info"):
            assert command in text


class TestListCommand:
    def test_lists_components(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "Meetup" in output
        assert "HOR-I" in output
        assert "fig5" in output


class TestGenerateAndInfo:
    def test_generate_json_and_info(self, tmp_path, capsys):
        target = tmp_path / "unf.json"
        code = main(
            [
                "generate", "Unf", str(target),
                "--users", "20", "--events", "8", "--intervals", "4", "--seed", "3",
            ]
        )
        assert code == 0
        assert target.exists()
        output = capsys.readouterr().out
        assert "wrote Unf instance" in output

        assert main(["info", str(target)]) == 0
        info_output = capsys.readouterr().out
        assert "num_events" in info_output

    def test_generate_npz(self, tmp_path):
        target = tmp_path / "zip.npz"
        code = main(
            [
                "generate", "Zip", str(target),
                "--users", "15", "--events", "6", "--intervals", "3",
            ]
        )
        assert code == 0
        assert target.exists()

    def test_info_missing_file_reports_error(self, tmp_path, capsys):
        code = main(["info", str(tmp_path / "missing.json")])
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestSolveCommand:
    def test_solve_generated_dataset(self, capsys):
        code = main(
            [
                "solve", "--dataset", "Unf", "-k", "4",
                "--users", "25", "--events", "10", "--intervals", "4",
                "--algorithms", "ALG", "HOR", "RAND",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "ALG" in output and "HOR" in output and "RAND" in output

    def test_solve_saved_instance_with_schedule(self, tmp_path, capsys):
        target = tmp_path / "inst.json"
        main(["generate", "Unf", str(target), "--users", "15", "--events", "6", "--intervals", "3"])
        capsys.readouterr()
        code = main(
            [
                "solve", "--instance", str(target), "-k", "3",
                "--algorithms", "TOP", "--show-schedule",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "TOP:" in output
        assert "@t" in output

    def test_show_schedule_runs_each_scheduler_exactly_once(self, capsys, monkeypatch):
        """--show-schedule must print from the metrics run, not re-run everything.

        The regression: the CLI used to run every scheduler a second time just
        to get at the assignments, doubling wall-clock and recomputing the
        counters.
        """
        from repro.algorithms.base import BaseScheduler

        calls = []
        original = BaseScheduler.schedule

        def counting(self, k):
            calls.append(self.name)
            return original(self, k)

        monkeypatch.setattr(BaseScheduler, "schedule", counting)
        code = main(
            [
                "solve", "--dataset", "Unf", "-k", "3",
                "--users", "15", "--events", "8", "--intervals", "3",
                "--algorithms", "TOP", "ALG", "--show-schedule",
            ]
        )
        assert code == 0
        assert sorted(calls) == ["ALG", "TOP"], f"schedulers re-ran: {calls}"
        output = capsys.readouterr().out
        assert "TOP:" in output and "ALG:" in output


class TestSolveBackendFlags:
    def test_solve_with_scalar_backend_and_chunk(self, capsys):
        code = main(
            [
                "solve", "--dataset", "Unf", "-k", "3",
                "--users", "15", "--events", "8", "--intervals", "3",
                "--algorithms", "INC", "HOR-I",
                "--backend", "scalar", "--chunk-size", "2",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "INC" in output and "HOR-I" in output

    def test_invalid_chunk_size_reports_error(self, capsys):
        code = main(
            [
                "solve", "--dataset", "Unf", "-k", "2",
                "--users", "10", "--events", "5", "--intervals", "2",
                "--algorithms", "TOP", "--chunk-size", "0",
            ]
        )
        assert code == 2
        assert "chunk_size" in capsys.readouterr().err

    def test_unknown_backend_reports_available_names(self, capsys):
        code = main(
            [
                "solve", "--dataset", "Unf", "-k", "2",
                "--users", "10", "--events", "5", "--intervals", "2",
                "--algorithms", "TOP",
                "--backend", "warp-drive",
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "warp-drive" in err
        for name in available_backends():
            assert name in err


class TestExperimentCommand:
    def test_experiment_tables(self, capsys):
        code = main(["experiment", "fig10a", "--scale", "tiny"])
        assert code == 0
        output = capsys.readouterr().out
        assert "fig10a" in output
        assert "HOR-I" in output

    def test_experiment_backend_recorded_in_json(self, capsys):
        code = main(
            ["experiment", "fig9", "--scale", "tiny", "--json", "--backend", "scalar"]
        )
        assert code == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows and all(row["param.backend"] == "scalar" for row in rows)

    def test_experiment_json(self, capsys):
        code = main(["experiment", "fig9", "--scale", "tiny", "--json"])
        assert code == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows and rows[0]["experiment"] == "fig9"

    def test_summary_experiment(self, capsys):
        code = main(["experiment", "summary", "--scale", "tiny"])
        assert code == 0
        output = capsys.readouterr().out
        assert "HOR == ALG utility" in output

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "fig99", "--scale", "tiny"])
