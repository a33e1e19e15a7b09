import dataclasses
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import newsdiv
from newsdiv.cli import main
from newsdiv.config import RunConfig, load_config_file
from newsdiv.corpus import load_behaviors, load_recommendations
from newsdiv.metrics import METRIC_NAMES
from newsdiv.report import read_samples_csv


def base_args(fixture_paths, out_dir, *extra):
    return [
        "--news", str(fixture_paths["news"]),
        "--bodies", str(fixture_paths["bodies"]),
        "--behaviors", str(fixture_paths["behaviors"]),
        "--lexicon", str(fixture_paths["lexicon"]),
        "--gazetteer", str(fixture_paths["gazetteer"]),
        "--seed", "42",
        "--out", str(out_dir),
        *extra,
    ]


@pytest.fixture(scope="module")
def evaluation(fixture_paths, tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("eval")
    code = main(["evaluate", *base_args(fixture_paths, out_dir, "--cutoffs", "0")])
    assert code == 0
    return out_dir


class TestEvaluate:
    def test_outputs_exist(self, evaluation):
        for name in ("report.json", "samples.csv", "skips.json"):
            assert (evaluation / name).exists()

    def test_all_six_metrics_reported(self, evaluation):
        report = json.loads((evaluation / "report.json").read_text())
        metrics = {row["metric"] for row in report["rows"]}
        assert metrics == set(METRIC_NAMES)

    def test_both_recommenders_reported(self, evaluation):
        report = json.loads((evaluation / "report.json").read_text())
        recommenders = {row["recommender"] for row in report["rows"]}
        assert recommenders == {"random", "popular"}

    def test_js_samples_bounded(self, evaluation):
        for row in read_samples_csv(evaluation / "samples.csv"):
            assert row.divergence == "js"
            assert 0.0 <= row.value <= 1.0

    def test_sample_count_matches_report(self, evaluation):
        report = json.loads((evaluation / "report.json").read_text())
        samples = read_samples_csv(evaluation / "samples.csv")
        assert sum(row["n"] for row in report["rows"]) == len(samples)

    def test_aggregates_recomputable_from_samples(self, evaluation):
        report = json.loads((evaluation / "report.json").read_text())
        samples = read_samples_csv(evaluation / "samples.csv")
        grouped = {}
        for sample in samples:
            key = (sample.metric, sample.recommender, sample.divergence, sample.weighting, sample.cutoff)
            grouped.setdefault(key, []).append(sample.value)
        for row in report["rows"]:
            key = (row["metric"], row["recommender"], row["divergence"], row["weighting"], row["cutoff"])
            values = grouped[key]
            mean = math.fsum(values) / len(values)
            if len(values) > 1:
                std = math.sqrt(math.fsum((v - mean) ** 2 for v in values) / (len(values) - 1))
            else:
                std = 0.0
            assert row["n"] == len(values)
            assert row["mean"] == round(mean, 4)
            assert row["std"] == round(std, 4)
            assert row["ci95"] == round(1.96 * std / math.sqrt(len(values)), 4)

    def test_six_rows_per_recommender_at_one_grid_point(self, evaluation):
        report = json.loads((evaluation / "report.json").read_text())
        random_rows = [row for row in report["rows"] if row["recommender"] == "random"]
        assert len(random_rows) == 6

    def test_empty_history_recorded_as_skip(self, evaluation):
        skips = json.loads((evaluation / "skips.json").read_text())
        calibration_skips = [
            row for row in skips["rows"] if row["metric"] == "calibration_topic"
        ]
        assert calibration_skips
        assert all(row["reason"] == "no context" for row in calibration_skips)

    def test_determinism_byte_identical(self, fixture_paths, evaluation, tmp_path):
        rerun = tmp_path / "rerun"
        code = main(["evaluate", *base_args(fixture_paths, rerun, "--cutoffs", "0")])
        assert code == 0
        for name in ("report.json", "samples.csv", "skips.json"):
            assert (rerun / name).read_bytes() == (evaluation / name).read_bytes()


class TestOutputSchema:
    KEYS = ["metric", "recommender", "divergence", "weighting", "cutoff"]

    def test_report_rows(self, evaluation):
        report = json.loads((evaluation / "report.json").read_text(encoding="utf-8"))
        assert set(report) == {"config", "rows"}
        assert report["rows"]
        for row in report["rows"]:
            assert set(row) == {*self.KEYS, "n", "mean", "std", "ci95", "skips"}

    def test_skip_rows(self, evaluation):
        skips = json.loads((evaluation / "skips.json").read_text(encoding="utf-8"))
        assert set(skips) == {"rows"}
        assert skips["rows"]
        for row in skips["rows"]:
            assert set(row) == {*self.KEYS, "reason", "count"}

    def test_samples_header(self, evaluation):
        header = (evaluation / "samples.csv").read_text(encoding="utf-8").split("\n", 1)[0]
        assert header == ",".join([*self.KEYS, "pair_id", "sample"])


class TestEvaluateVariants:
    def test_external_recommendations(self, fixture_paths, tmp_path):
        out_dir = tmp_path / "out"
        code = main(
            [
                "evaluate",
                *base_args(fixture_paths, out_dir, "--cutoffs", "0"),
                "--recommenders", "random",
                "--external", f"fixture={fixture_paths['recommendations']}",
            ]
        )
        assert code == 0
        report = json.loads((out_dir / "report.json").read_text())
        recommenders = {row["recommender"] for row in report["rows"]}
        assert recommenders == {"random", "external:fixture"}

    def test_external_alone_with_no_baselines(self, fixture_paths, tmp_path):
        out_dir = tmp_path / "out"
        code = main(
            [
                "evaluate",
                *base_args(fixture_paths, out_dir, "--cutoffs", "0"),
                "--recommenders", ",",
                "--external", f"fixture={fixture_paths['recommendations']}",
            ]
        )
        assert code == 0
        report = json.loads((out_dir / "report.json").read_text())
        assert {row["recommender"] for row in report["rows"]} == {"external:fixture"}

    def test_kl_divergence_runs(self, fixture_paths, tmp_path):
        out_dir = tmp_path / "out"
        code = main(
            ["evaluate", *base_args(fixture_paths, out_dir, "--cutoffs", "0", "--divergence", "kl")]
        )
        assert code == 0
        for row in read_samples_csv(out_dir / "samples.csv"):
            assert row.value >= 0.0

    def test_sidecar_changes_results(self, fixture_paths, tmp_path):
        plain = tmp_path / "plain"
        overridden = tmp_path / "overridden"
        assert main(["evaluate", *base_args(fixture_paths, plain, "--cutoffs", "0")]) == 0
        assert (
            main(
                [
                    "evaluate",
                    *base_args(fixture_paths, overridden, "--cutoffs", "0"),
                    "--sidecar", str(fixture_paths["sidecar"]),
                ]
            )
            == 0
        )
        assert (plain / "samples.csv").read_bytes() != (overridden / "samples.csv").read_bytes()

    def test_daily_pool_switch(self, fixture_paths, tmp_path):
        out_dir = tmp_path / "out"
        code = main(
            ["evaluate", *base_args(fixture_paths, out_dir, "--cutoffs", "0", "--pool", "daily")]
        )
        assert code == 0

    def test_bins_flag_changes_binned_metrics(self, fixture_paths, evaluation, tmp_path):
        out_dir = tmp_path / "coarse"
        code = main(
            ["evaluate", *base_args(fixture_paths, out_dir, "--cutoffs", "0", "--bins", "2")]
        )
        assert code == 0
        fine = {
            (r.metric, r.recommender, r.pair_id): r.value
            for r in read_samples_csv(evaluation / "samples.csv")
        }
        coarse = {
            (r.metric, r.recommender, r.pair_id): r.value
            for r in read_samples_csv(out_dir / "samples.csv")
        }
        changed = [
            key for key in fine
            if key in coarse and key[0] == "activation" and fine[key] != coarse[key]
        ]
        assert changed

    def test_kl_without_smoothing_is_an_internal_error(self, fixture_paths, tmp_path):
        # disjoint story chains make unsmoothed KL infinite, which raises
        code = main(
            [
                "evaluate",
                *base_args(
                    fixture_paths, tmp_path / "out",
                    "--cutoffs", "0", "--divergence", "kl", "--alpha", "0",
                ),
            ]
        )
        assert code == 2


class TestSensitivity:
    def test_full_sweep(self, fixture_paths, tmp_path):
        out_dir = tmp_path / "out"
        code = main(
            [
                "sensitivity",
                *base_args(fixture_paths, out_dir, "--cutoffs", "1,2,5,10,20,0"),
                "--alpha", "0.001",
            ]
        )
        assert code == 0
        report = json.loads((out_dir / "report.json").read_text())
        cutoffs = {
            row["cutoff"]
            for row in report["rows"]
            if row["metric"] == "calibration_topic"
            and row["recommender"] == "random"
            and row["divergence"] == "js"
            and row["weighting"] == "mrr"
        }
        assert cutoffs == {1, 2, 5, 10, 20, 0}
        assert {row["divergence"] for row in report["rows"]} == {"kl", "js"}
        assert {row["weighting"] for row in report["rows"]} == {"none", "mrr"}

    @pytest.mark.parametrize(
        "command, flags",
        [
            ("sensitivity", ["--divergence", "kl"]),
            ("sensitivity", ["--weighting", "ndcg"]),
            ("evaluate", ["--divergences", "kl,js"]),
            ("evaluate", ["--weightings", "none"]),
        ],
    )
    def test_grid_flag_of_the_other_subcommand_is_a_usage_error(
        self, fixture_paths, tmp_path, capsys, command, flags
    ):
        out_dir = tmp_path / "out"
        assert main([command, *base_args(fixture_paths, out_dir, "--cutoffs", "0"), *flags]) == 1
        assert f"unrecognized arguments: {' '.join(flags)}" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_config_file_grid_keys_are_shared(self, fixture_paths, tmp_path):
        config_path = tmp_path / "run.cfg"
        config_path.write_text(
            "divergence = kl\nweighting = ndcg\ndivergences = js\nweightings = none\n",
            encoding="utf-8",
        )
        grids = {}
        for command in ("evaluate", "sensitivity"):
            out_dir = tmp_path / command
            args = base_args(fixture_paths, out_dir, "--cutoffs", "0", "--config", str(config_path))
            assert main([command, *args]) == 0
            report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
            grids[command] = {(row["divergence"], row["weighting"]) for row in report["rows"]}
        assert grids == {"evaluate": {("kl", "ndcg")}, "sensitivity": {("js", "none")}}


class TestRecommendCommand:
    def test_random_round_trips(self, fixture_paths, tmp_path):
        out = tmp_path / "random.jsonl"
        code = main(
            [
                "recommend",
                "--behaviors", str(fixture_paths["behaviors"]),
                "--strategy", "random",
                "--seed", "42",
                "-o", str(out),
            ]
        )
        assert code == 0
        impressions = load_behaviors(fixture_paths["behaviors"])
        recs = load_recommendations(out, impressions)
        assert len(recs) == 3

    def test_popular_orders_by_clicks(self, fixture_paths, tmp_path):
        out = tmp_path / "popular.jsonl"
        code = main(
            [
                "recommend",
                "--behaviors", str(fixture_paths["behaviors"]),
                "--strategy", "popular",
                "-o", str(out),
            ]
        )
        assert code == 0
        record = json.loads(out.read_text().splitlines()[0])
        # I1 pool: N1 clicked once, others zero
        assert record["ranked_item_ids"][0] == "N1"

    def test_determinism(self, fixture_paths, tmp_path):
        first = tmp_path / "a.jsonl"
        second = tmp_path / "b.jsonl"
        for out in (first, second):
            assert (
                main(
                    [
                        "recommend",
                        "--behaviors", str(fixture_paths["behaviors"]),
                        "--strategy", "random",
                        "--seed", "7",
                        "-o", str(out),
                    ]
                )
                == 0
            )
        assert first.read_bytes() == second.read_bytes()


class TestEnrichCommand:
    def test_records_hold_every_article_field(self, fixture_paths, tmp_path):
        out = tmp_path / "enriched.jsonl"
        assert main(["enrich", "--news", str(fixture_paths["news"]), "-o", str(out)]) == 0
        names = {article_field.name for article_field in dataclasses.fields(newsdiv.Article)}
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines
        for line in lines:
            assert set(json.loads(line)) == names

    def test_idempotent_bytes(self, fixture_paths, tmp_path):
        first = tmp_path / "a.jsonl"
        second = tmp_path / "b.jsonl"
        args = [
            "--news", str(fixture_paths["news"]),
            "--bodies", str(fixture_paths["bodies"]),
            "--lexicon", str(fixture_paths["lexicon"]),
            "--gazetteer", str(fixture_paths["gazetteer"]),
        ]
        assert main(["enrich", *args, "-o", str(first)]) == 0
        assert main(["enrich", *args, "-o", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_without_gazetteer_entity_fields_empty(self, fixture_paths, tmp_path):
        out = tmp_path / "enriched.jsonl"
        code = main(
            [
                "enrich",
                "--news", str(fixture_paths["news"]),
                "--bodies", str(fixture_paths["bodies"]),
                "--lexicon", str(fixture_paths["lexicon"]),
                "-o", str(out),
            ]
        )
        assert code == 0
        for line in out.read_text().splitlines():
            record = json.loads(line)
            assert record["political_actors"] == []
            assert record["minority_mentions"] == 0
            assert record["complexity"] is not None

    def test_sidecar_overrides_listed_ids_only(self, fixture_paths, tmp_path):
        out = tmp_path / "enriched.jsonl"
        code = main(
            [
                "enrich",
                "--news", str(fixture_paths["news"]),
                "--bodies", str(fixture_paths["bodies"]),
                "--lexicon", str(fixture_paths["lexicon"]),
                "--sidecar", str(fixture_paths["sidecar"]),
                "-o", str(out),
            ]
        )
        assert code == 0
        records = {json.loads(line)["id"]: json.loads(line) for line in out.read_text().splitlines()}
        assert records["N7"]["activation"] == 0.65
        assert records["N5"]["activation"] != 0.65


class TestConfigFile:
    def test_file_values_used_and_flags_win(self, fixture_paths, tmp_path):
        config_path = tmp_path / "run.cfg"
        config_path.write_text(
            "\n".join(
                [
                    f"news = {fixture_paths['news']}",
                    f"bodies = {fixture_paths['bodies']}",
                    f"behaviors = {fixture_paths['behaviors']}",
                    f"lexicon = {fixture_paths['lexicon']}",
                    "seed = 1  # overridden by the flag below",
                    "cutoffs = 0",
                    f"out = {tmp_path / 'from_file'}",
                ]
            )
            + "\n",
            encoding="utf-8",
        )
        flag_out = tmp_path / "from_flag"
        code = main(
            ["evaluate", "--config", str(config_path), "--seed", "42", "--out", str(flag_out)]
        )
        assert code == 0
        assert flag_out.exists()
        report = json.loads((flag_out / "report.json").read_text())
        assert report["config"]["seed"] == 42

    def test_missing_config_file_is_input_error(self, tmp_path):
        assert main(["evaluate", "--config", str(tmp_path / "nope.cfg")]) == 1

    def test_hash_inside_quotes_is_kept(self, tmp_path):
        config_path = tmp_path / "run.cfg"
        config_path.write_text(
            'out = "/tmp/a#b"  # comment\n'
            "news = '/tmp/n#1.tsv'\n"
            "seed = 4 # comment\n",
            encoding="utf-8",
        )
        assert load_config_file(config_path) == {
            "out": "/tmp/a#b",
            "news": "/tmp/n#1.tsv",
            "seed": "4",
        }

    def test_file_is_closed(self, tmp_path):
        config_path = tmp_path / "run.cfg"
        config_path.write_text("seed = 4\n", encoding="utf-8")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            load_config_file(config_path)
        assert [str(w.message) for w in caught if w.category is ResourceWarning] == []

    @pytest.mark.parametrize("line", ["pairz = 3", "workers = 2"])
    def test_unknown_key_is_input_error(self, fixture_paths, tmp_path, capsys, line):
        config_path = tmp_path / "run.cfg"
        config_path.write_text(f"seed = 1\n{line}\n", encoding="utf-8")
        code = main(
            ["evaluate", *base_args(fixture_paths, tmp_path / "out"), "--config", str(config_path)]
        )
        assert code == 1
        assert f"{config_path}:2: unknown key" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "line, message",
        [
            ("pairs = x", "invalid value for pairs: 'x'"),
            ("cutoffs = 5,-1", "cutoffs must be a non-empty list of values >= 0"),
            ("divergence = 'hellinger'", "divergence must be one of kl, js, got 'hellinger'"),
        ],
    )
    def test_bad_value_names_its_line(self, fixture_paths, tmp_path, capsys, line, message):
        config_path = tmp_path / "run.cfg"
        config_path.write_text(f"seed = 1\n\n{line}\n", encoding="utf-8")
        code = main(
            ["evaluate", *base_args(fixture_paths, tmp_path / "out"), "--config", str(config_path)]
        )
        assert code == 1
        assert f"error: {config_path}:3: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_external_keys_accepted(self, fixture_paths, tmp_path):
        config_path = tmp_path / "run.cfg"
        config_path.write_text(
            f"external.fixture = {fixture_paths['recommendations']}\n", encoding="utf-8"
        )
        out_dir = tmp_path / "out"
        code = main(
            [
                "evaluate",
                *base_args(fixture_paths, out_dir, "--cutoffs", "0"),
                "--config", str(config_path),
            ]
        )
        assert code == 0
        report = json.loads((out_dir / "report.json").read_text())
        assert "external:fixture" in {row["recommender"] for row in report["rows"]}


    def test_empty_external_name_is_input_error(self, fixture_paths, tmp_path, capsys):
        config_path = tmp_path / "run.cfg"
        config_path.write_text(
            f"seed = 1\nexternal. = {fixture_paths['recommendations']}\n", encoding="utf-8"
        )
        code = main(
            ["evaluate", *base_args(fixture_paths, tmp_path / "out"), "--config", str(config_path)]
        )
        assert code == 1
        assert f"{config_path}:2: unknown key 'external.'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_empty_external_path_is_input_error(self, fixture_paths, tmp_path, capsys):
        config_path = tmp_path / "run.cfg"
        config_path.write_text("external.m =\n", encoding="utf-8")
        code = main(
            ["evaluate", *base_args(fixture_paths, tmp_path / "out"), "--config", str(config_path)]
        )
        assert code == 1
        message = f"error: {config_path}:1: config key 'external.m' has an empty path"
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_defaults_match_run_config_fields(self):
        resolved = RunConfig.from_options({})
        default = RunConfig()
        for config_field in dataclasses.fields(RunConfig):
            assert getattr(resolved, config_field.name) == getattr(default, config_field.name), (
                config_field.name
            )


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["evaluate", "--divergence", "foo"], "invalid choice: 'foo'"),
            (["evaluate", "--workers", "2"], "unrecognized arguments: --workers 2"),
            ([], "the following arguments are required: command"),
        ],
    )
    def test_exit_one_with_message(self, argv, message, capsys):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["evaluate", "--help"])
        assert exit_info.value.code == 0
        assert "--divergence" in capsys.readouterr().out


class TestErrorPaths:
    def test_missing_news_is_input_error(self, fixture_paths, tmp_path):
        code = main(
            [
                "evaluate",
                "--news", str(tmp_path / "missing.tsv"),
                "--behaviors", str(fixture_paths["behaviors"]),
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 1

    def test_out_of_pool_external_is_input_error(self, fixture_paths, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(
            json.dumps({"impression_id": "I1", "user_id": "U1", "ranked_item_ids": ["N9"]}) + "\n",
            encoding="utf-8",
        )
        code = main(
            [
                "evaluate",
                *base_args(fixture_paths, tmp_path / "out", "--cutoffs", "0"),
                "--external", f"bad={bad}",
            ]
        )
        assert code == 1

    @pytest.mark.parametrize("item", ["=recs.jsonl", " =recs.jsonl"])
    def test_empty_external_name_is_input_error(self, fixture_paths, tmp_path, capsys, item):
        item = item.replace("recs.jsonl", str(fixture_paths["recommendations"]))
        code = main(
            ["evaluate", *base_args(fixture_paths, tmp_path / "out"), "--external", item]
        )
        assert code == 1
        assert "--external expects name=path" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_empty_external_path_is_input_error(self, fixture_paths, tmp_path, capsys):
        code = main(["evaluate", *base_args(fixture_paths, tmp_path / "out"), "--external", "m="])
        assert code == 1
        assert "error: --external m= has an empty path" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_empty_recommender_set_is_input_error(self, fixture_paths, tmp_path, capsys):
        out_dir = tmp_path / "out"
        args = base_args(fixture_paths, out_dir, "--cutoffs", "0", "--recommenders", ",")
        code = main(["evaluate", *args])
        assert code == 1
        assert "error: no recommenders to score" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_empty_recommenders_key_does_not_stop_enrich(self, fixture_paths, tmp_path):
        config_path = tmp_path / "run.cfg"
        config_path.write_text(f"news = {fixture_paths['news']}\nrecommenders =\n", encoding="utf-8")
        out = tmp_path / "enriched.jsonl"
        assert main(["enrich", "--config", str(config_path), "-o", str(out)]) == 0

    def test_duplicate_external_impression_is_input_error(self, fixture_paths, tmp_path, capsys):
        recs = tmp_path / "recs.jsonl"
        lines = fixture_paths["recommendations"].read_text(encoding="utf-8").splitlines()
        recs.write_text("\n".join([*lines, lines[0]]) + "\n", encoding="utf-8")
        code = main(["evaluate", *base_args(fixture_paths, tmp_path / "out"), "--external", f"m={recs}"])
        assert code == 1
        assert f"{recs}:4: duplicate impression id 'I1' (first on line 1)" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_duplicate_behaviors_impression_is_input_error(self, fixture_paths, tmp_path, capsys):
        behaviors = tmp_path / "behaviors.tsv"
        lines = fixture_paths["behaviors"].read_text(encoding="utf-8").splitlines()
        behaviors.write_text("\n".join([*lines, lines[1]]) + "\n", encoding="utf-8")
        code = main(
            [
                "evaluate",
                "--news", str(fixture_paths["news"]),
                "--behaviors", str(behaviors),
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 1
        assert f"{behaviors}:4: duplicate impression id 'I2' (first on line 2)" in capsys.readouterr().err

    def test_python_dash_m_runs_the_cli(self):
        source = Path(newsdiv.__file__).resolve().parent.parent
        result = subprocess.run(
            [sys.executable, "-m", "newsdiv", "--help"],
            env={**os.environ, "PYTHONPATH": str(source)},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 0
        assert "usage: newsdiv" in result.stdout

    def test_behaviors_referencing_unknown_articles_fail_fast(self, fixture_paths, tmp_path):
        behaviors = tmp_path / "behaviors.tsv"
        behaviors.write_text(
            "I1\tU1\t2019-11-12T10:00:00Z\tN1\tNZ9-0 N1-1\n", encoding="utf-8"
        )
        code = main(
            [
                "evaluate",
                "--news", str(fixture_paths["news"]),
                "--behaviors", str(behaviors),
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 1

    def test_invalid_cutoffs_rejected(self, fixture_paths, tmp_path):
        code = main(
            ["evaluate", *base_args(fixture_paths, tmp_path / "out", "--cutoffs", "-3")]
        )
        assert code == 1


class TestOptionsCheckedByTheLibrary:
    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--tau", "0"], "tau must be in (0, 1], got 0.0"),
            (["--tau", "2"], "tau must be in (0, 1], got 2.0"),
            (["--tau", "nan"], "tau must be in (0, 1], got nan"),
            (["--bins", "1"], "degenerate binning: bin_count must be >= 2, got 1"),
            (["--window-days", "-1"], "chaining window must be >= 0 seconds, got -86400.0"),
            (["--window-days", "nan"], "chaining window must be >= 0 seconds, got nan"),
            (["--alpha", "0.5"], "alpha must be in [0, 0.5), got 0.5"),
            (["--pairs", "0"], "fragmentation_pairs must be >= 1"),
            (["--pairs", "x"], "invalid value for pairs: 'x'"),
        ],
    )
    def test_exit_one_with_the_library_message(self, fixture_paths, tmp_path, capsys, flags, message):
        out_dir = tmp_path / "out"
        assert main(["evaluate", *base_args(fixture_paths, out_dir), *flags]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "command,flags",
        [
            ("evaluate", ["--cutoffs", "10,10"]),
            ("sensitivity", ["--divergences", "js,js"]),
            ("sensitivity", ["--weightings", "mrr,mrr"]),
        ],
    )
    def test_duplicate_grid_values_are_rejected(self, fixture_paths, tmp_path, capsys, command, flags):
        out_dir = tmp_path / "out"
        assert main([command, *base_args(fixture_paths, out_dir), *flags]) == 1
        assert "list has duplicates" in capsys.readouterr().err
        assert not out_dir.exists()


class TestWarnings:
    @pytest.mark.parametrize("command", ["enrich", "evaluate", "sensitivity"])
    def test_every_subcommand_prints_the_corpus_warnings(self, fixture_paths, tmp_path, capsys, command):
        args = base_args(fixture_paths, tmp_path / "out", "--cutoffs", "0")
        if command == "enrich":  # enrich has no --out or metric flags
            args = [*args[:-4], "-o", str(tmp_path / "enriched.jsonl")]
        assert main([command, *args]) == 0
        bodies = fixture_paths["bodies"]
        warning = f"warning: {bodies}:9: body for unknown article 'N9' skipped\n"
        assert capsys.readouterr().err == warning
