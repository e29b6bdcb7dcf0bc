"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import main
from repro.experiments import orchestrator


@pytest.fixture(autouse=True)
def _restore_shared_runner(monkeypatch):
    """``run`` replaces the process-wide sweep runner; put it back."""
    monkeypatch.setattr(orchestrator, "_DEFAULT", orchestrator._DEFAULT)


class TestList:
    def test_lists_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("fig2", "fig5", "table2", "complexity"):
            assert name in out


class TestInfo:
    def test_info_mentions_paper(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "Otoo" in out
        assert "Pack_Disks" in out


class TestRun:
    def test_run_table2(self, capsys):
        assert main(["run", "table2"]) == 0
        out = capsys.readouterr().out
        assert "53.3" in out

    def test_run_with_csv_export(self, capsys, tmp_path):
        code = main(
            ["run", "quality", "--scale", "0.1", "--csv-dir", str(tmp_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "pack_disks" in out

    def test_run_unknown_experiment(self, capsys):
        assert main(["run", "fig99"]) == 2
        assert "unknown" in capsys.readouterr().err

    def test_run_placement_with_write_policy(self, capsys):
        code = main(
            [
                "run", "placement", "--scale", "0.02",
                "--engine", "fast", "--sweep-cache", "off",
                "--write-policy", "round_robin",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "round_robin power" in out
        # Restricted to one policy: no other registry entry is swept.
        assert "spinning_best_fit power" not in out
        assert "first_fit_spinning" not in out

    def test_write_policy_rejected_for_other_experiments(self, capsys):
        assert main(
            ["run", "table2", "--write-policy", "round_robin"]
        ) == 2
        assert "not applicable" in capsys.readouterr().err

    def test_engine_defaults_to_fast(self, capsys):
        assert main(["run", "table2"]) == 0
        assert orchestrator.default_runner().engine == "fast"

    def test_engine_event_selects_the_reference(self, capsys):
        assert main(["run", "table2", "--engine", "event"]) == 0
        assert orchestrator.default_runner().engine == "event"

    def test_engine_rejects_unknown_kernel(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "table2", "--engine", "vector"])
        assert exc.value.code == 2

    def test_seed_override(self, capsys):
        assert main(["run", "complexity", "--scale", "0.2", "--seed", "5"]) == 0

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
