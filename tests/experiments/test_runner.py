"""Tests for the experiments CLI."""

import importlib.util
from pathlib import Path

import pytest

import repro

from repro.errors import ConfigurationError
from repro.experiments.registry import (
    EXPERIMENT_IDS,
    experiment_parameters,
    run_experiment,
)
from repro.experiments.runner import build_parser, main
from repro.workloads import reduced as reduced_module


class TestRegistry:
    def test_all_paper_artifacts_present(self):
        for artifact in ("table1", "table2", "table3", "table4", "table5",
                         "fig2", "fig3", "fig4", "fig5", "fig6"):
            assert artifact in EXPERIMENT_IDS

    def test_ablations_present(self):
        for artifact in ("ablation_objsize", "ablation_fulldump",
                         "ablation_disk", "ablation_tickrate"):
            assert artifact in EXPERIMENT_IDS

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ConfigurationError):
            run_experiment("fig99")

    def test_experiment_parameters_introspects_signature(self):
        assert experiment_parameters("fig2") == {"scale", "seed"}
        assert "seed" in experiment_parameters("ablation_disk")
        assert "seed" not in experiment_parameters("table1")
        with pytest.raises(ConfigurationError):
            experiment_parameters("fig99")

    def test_unaccepted_kwargs_dropped(self):
        # table1 takes no seed; passing one must not raise.
        from repro.experiments.common import QUICK_SCALE

        result = run_experiment("table1", scale=QUICK_SCALE, seed=3)
        assert result.experiment_id == "table1"


class TestCli:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["table1"])
        assert args.experiments == ["table1"]
        assert not args.quick
        assert args.seed == 0
        assert args.out is None
        assert args.export_dir is None

    def test_main_runs_table1(self, capsys):
        assert main(["table1", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "Copy-on-Update" in out

    def test_main_unknown_experiment(self, capsys):
        assert main(["fig99"]) == 2
        err = capsys.readouterr().err
        assert "unknown experiment" in err

    def test_main_writes_report_file(self, tmp_path, capsys):
        out_file = tmp_path / "report.txt"
        assert main(["table2", "--quick", "--out", str(out_file)]) == 0
        assert "Table 2" in out_file.read_text()

    def test_main_leaves_no_files_behind(self, tmp_path, capsys,
                                         monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["table1", "--quick"]) == 0
        assert list(tmp_path.iterdir()) == []

    def test_ablation_tickrate_reduces_its_shared_trace_once(
        self, capsys, monkeypatch
    ):
        # Both frequencies share one geometry, so one trace; the sweep must
        # reduce it once for all 2 x 4 runs.
        reduced = []
        original = reduced_module._reduce_trace

        def counting(trace):
            reduced.append(trace)
            return original(trace)

        monkeypatch.setattr(reduced_module, "_reduce_trace", counting)
        assert main(["ablation_tickrate", "--quick"]) == 0
        assert len(reduced) == 1
        assert "30 Hz" in capsys.readouterr().out


def test_no_trace_cache_grows_back(capsys):
    """The trace cache, the sweep's process pool and the specs stay gone."""
    for module in ("repro.workloads.cache", "repro.workloads.spec"):
        assert importlib.util.find_spec(module) is None, module
    src = Path(repro.__file__).resolve().parents[1]
    for package in ("simulation", "experiments"):
        for path in (src / "repro" / package).rglob("*.py"):
            assert "ProcessPoolExecutor" not in path.read_text(), path
    for path in src.rglob("*"):
        if path.is_file() and "__pycache__" not in path.parts:
            assert b"REPRO_CACHE" not in path.read_bytes(), path
    for flag in (["--jobs", "2"], ["--no-cache"], ["--cache-dir", "c"],
                 ["--bench-out", "b.json"]):
        with pytest.raises(SystemExit) as error:
            build_parser().parse_args(["fig2", *flag])
        assert error.value.code == 2, flag
        assert "unrecognized arguments" in capsys.readouterr().err, flag
