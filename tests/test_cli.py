"""Tests for the CLI entry point."""

import pytest

from repro.cli import EXPERIMENTS, build_parser, main


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args([])
        assert args.owners == 8
        assert args.experiments == ["all"]

    def test_experiment_choices(self):
        args = build_parser().parse_args(["--experiments", "fig4", "table1"])
        assert args.experiments == ["fig4", "table1"]

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--experiments", "fig99"])

    def test_classifier_choices(self):
        args = build_parser().parse_args(["--classifier", "knn"])
        assert args.classifier == "knn"

    def test_workers_default_is_serial(self):
        args = build_parser().parse_args([])
        assert args.workers == 0
        args = build_parser().parse_args(["--workers", "4"])
        assert args.workers == 4

    def test_workers_conflict_with_checkpointing_is_a_usage_error(
        self, capsys
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(["--workers", "2", "--checkpoint-dir", "/tmp/ckpt"])
        assert excinfo.value.code == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_measure_choices_come_from_the_registry(self):
        from repro.measures import available_measures

        args = build_parser().parse_args([])
        assert args.measure is None
        for name in available_measures():
            assert build_parser().parse_args(
                ["--measure", name]
            ).measure == name
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--measure", "tarot"])



class TestUsageErrors:
    """Unusable bounds exit 2 with a usage message before any cohort is
    generated or any process spawned — never a traceback after the
    cohort is built, never a hang waiting on a shard that cannot boot."""

    @pytest.fixture(autouse=True)
    def refuse_spawning(self, monkeypatch):
        import subprocess

        from repro.experiments import study

        def refuse(*args, **kwargs):
            raise AssertionError("a process was spawned")

        monkeypatch.setattr(subprocess, "Popen", refuse)
        monkeypatch.setattr(study, "ProcessPoolExecutor", refuse)

    @staticmethod
    def usage_error(capsys, *argv) -> str:
        with pytest.raises(SystemExit) as excinfo:
            main(list(argv))
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "generating cohort" not in err
        return err

    def test_negative_study_workers(self, capsys):
        err = self.usage_error(capsys, "--workers", "-1")
        assert "--workers must be >= 0, got -1" in err

    def test_negative_shards(self, capsys):
        err = self.usage_error(capsys, "serve", "--shards", "-1")
        assert "--shards must be >= 0, got -1" in err

    @pytest.mark.parametrize("shards", ["0", "1"])
    def test_zero_compact_every(self, capsys, tmp_path, shards):
        err = self.usage_error(
            capsys,
            "serve", "--compact-every", "0", "--wal-dir", str(tmp_path),
            "--shards", shards,
        )
        assert "--compact-every must be >= 1, got 0" in err
        assert not any(tmp_path.iterdir())

    def test_score_workers_is_gone(self, capsys):
        err = self.usage_error(capsys, "serve", "--score-workers", "2")
        assert "unrecognized arguments: --score-workers 2" in err

    def test_background_refresh_is_gone(self, capsys):
        err = self.usage_error(capsys, "serve", "--background-refresh")
        assert "unrecognized arguments: --background-refresh" in err

    @pytest.mark.parametrize(
        "flag", ["--crash-at-mutation", "--torn-write-at-mutation"]
    )
    def test_crash_flags_with_shards(self, capsys, tmp_path, flag):
        err = self.usage_error(
            capsys,
            "serve", flag, "3", "--shards", "2", "--wal-dir", str(tmp_path),
        )
        assert f"{flag} applies to a single server, not to --shards" in err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("shards", ["0", "2"])
    @pytest.mark.parametrize("timeout", ["0", "-1"])
    def test_non_positive_timeout(self, capsys, shards, timeout):
        err = self.usage_error(
            capsys, "serve", "--timeout", timeout, "--shards", shards
        )
        assert f"--timeout must be > 0, got {float(timeout)}" in err


class TestMain:
    def run(self, capsys, *argv):
        code = main(list(argv))
        assert code == 0
        return capsys.readouterr().out

    def test_fig4_only(self, capsys):
        out = self.run(
            capsys,
            "--owners", "2", "--strangers", "60", "--friends", "15",
            "--seed", "1", "--experiments", "fig4",
        )
        assert "Figure 4" in out
        assert "Table I" not in out

    def test_headline_only(self, capsys):
        out = self.run(
            capsys,
            "--owners", "2", "--strangers", "60", "--friends", "15",
            "--seed", "1", "--experiments", "headline",
        )
        assert "exact-match accuracy" in out

    def test_measure_study_prints_digests_not_experiments(self, capsys):
        from repro.measures import available_measures

        for name in available_measures():
            out = self.run(
                capsys,
                "--owners", "2", "--strangers", "25", "--friends", "10",
                "--seed", "17", "--measure", name,
            )
            assert f"risk measure: {name}" in out
            assert out.count("digest=") == 2
            assert "Figure 4" not in out

    def test_measure_study_is_deterministic_across_invocations(self, capsys):
        argv = (
            "--owners", "2", "--strangers", "25", "--friends", "10",
            "--seed", "17", "--measure", "friendship",
        )
        assert self.run(capsys, *argv) == self.run(capsys, *argv)

    def test_fig7_needs_no_study(self, capsys):
        out = self.run(
            capsys,
            "--owners", "2", "--strangers", "60", "--friends", "15",
            "--seed", "2", "--experiments", "fig7",
        )
        assert "Figure 7" in out

    def test_all_experiments_listed(self):
        assert set(EXPERIMENTS) == {
            "dataset", "fig4", "fig5", "fig6", "fig7",
            "table1", "table2", "table3", "table4", "table5",
            "headline", "report",
        }

    def test_validate_flag(self, capsys):
        code = main([
            "--owners", "4", "--strangers", "150", "--friends", "30",
            "--seed", "101", "--experiments", "fig4", "--validate",
        ])
        out = capsys.readouterr().out
        assert "Shape validation" in out
        assert "[PASS]" in out or "[FAIL]" in out
        assert code in (0, 1)

    def test_owner_report_experiment(self, capsys):
        out = self.run(
            capsys,
            "--owners", "2", "--strangers", "40", "--friends", "10",
            "--seed", "8", "--experiments", "report",
        )
        assert "# Risk report for owner" in out
        assert "Friendship candidates" in out

    def test_dataset_experiment(self, capsys):
        out = self.run(
            capsys,
            "--owners", "2", "--strangers", "40", "--friends", "10",
            "--seed", "5", "--experiments", "dataset",
        )
        assert "Dataset characterization" in out
        assert "stranger profiles: 80" in out

    def test_save_and_load_dataset(self, capsys, tmp_path):
        path = str(tmp_path / "cohort.json")
        self.run(
            capsys,
            "--owners", "2", "--strangers", "30", "--friends", "10",
            "--seed", "6", "--experiments", "dataset",
            "--save-dataset", path,
        )
        out = self.run(
            capsys, "--load-dataset", path, "--experiments", "dataset",
        )
        assert "stranger profiles: 60" in out

    def test_topology_option(self, capsys):
        out = self.run(
            capsys,
            "--owners", "2", "--strangers", "40", "--friends", "12",
            "--seed", "7", "--topology", "small_world",
            "--experiments", "fig4",
        )
        assert "Figure 4" in out

    def test_fig5_runs_both_poolings(self, capsys):
        out = self.run(
            capsys,
            "--owners", "2", "--strangers", "50", "--friends", "12",
            "--seed", "3", "--experiments", "fig5",
        )
        assert "npp" in out and "nsp" in out
