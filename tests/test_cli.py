import argparse
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
from newsdiv import corpus as corpus_module, report as report_module
from newsdiv.cli import build_parser, main
from newsdiv.config import OPTION_KEYS, RunConfig, load_config_file
from newsdiv.corpus import load_behaviors, load_recommendations
from newsdiv.enrich import DEFAULT_TAU, DEFAULT_WINDOW_SECONDS
from newsdiv.errors import InputError
from newsdiv.metrics import METRIC_NAMES, MetricConfig
from newsdiv.report import read_samples_csv
from views import named_samples


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
        for row in named_samples(read_samples_csv(evaluation / "samples.csv")):
            assert row.divergence == "js"
            assert 0.0 <= row.value <= 1.0

    def test_sample_count_matches_report(self, evaluation):
        report = json.loads((evaluation / "report.json").read_text())
        samples = read_samples_csv(evaluation / "samples.csv")
        assert sum(row["n"] for row in report["rows"]) == len(samples)

    def test_aggregates_recomputable_from_samples(self, evaluation):
        report = json.loads((evaluation / "report.json").read_text())
        samples = named_samples(read_samples_csv(evaluation / "samples.csv"))
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
        for row in named_samples(read_samples_csv(out_dir / "samples.csv")):
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
            for r in named_samples(read_samples_csv(evaluation / "samples.csv"))
        }
        coarse = {
            (r.metric, r.recommender, r.pair_id): r.value
            for r in named_samples(read_samples_csv(out_dir / "samples.csv"))
        }
        changed = [
            key for key in fine
            if key in coarse and key[0] == "activation" and fine[key] != coarse[key]
        ]
        assert changed

    def test_kl_without_smoothing_is_a_usage_error(self, fixture_paths, tmp_path, capsys):
        # disjoint story chains would make unsmoothed KL infinite
        out_dir = tmp_path / "out"
        code = main(
            ["evaluate", *base_args(fixture_paths, out_dir, "--cutoffs", "0", "--divergence", "kl", "--alpha", "0")]
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("error: --alpha 0 leaves kl infinite")
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "command,flags",
        [
            ("evaluate", ["--divergence", "kl"]),
            ("sensitivity", []),
            ("sensitivity", ["--divergences", "js,kl"]),
        ],
    )
    def test_kl_at_alpha_zero_is_rejected_before_any_input_is_read(self, tmp_path, capsys, command, flags):
        missing = str(tmp_path / "missing")
        argv = [command, "--news", missing, "--behaviors", missing, "--alpha", "0", *flags]
        assert main([*argv, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "--alpha" in err and "not found" not in err

    @pytest.mark.parametrize(
        "command,flags", [("evaluate", ["--divergence", "js"]), ("sensitivity", ["--divergences", "js"])]
    )
    def test_js_at_alpha_zero_still_runs(self, fixture_paths, tmp_path, command, flags):
        assert main([command, *base_args(fixture_paths, tmp_path / "out", "--alpha", "0", *flags)]) == 0

    def test_kl_smooths_each_scored_pair_once(self, fixture_paths, tmp_path, monkeypatch):
        # symmetrized KL (fragmentation) takes both directions from one alignment
        calls = {"smoothed": 0, "kl": 0, "pairs": 0}

        def counting(name, function):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)

            return wrapper

        divergence, metrics = newsdiv.divergence, newsdiv.metrics
        monkeypatch.setattr(divergence, "_mixed", counting("smoothed", divergence._mixed))
        monkeypatch.setattr(metrics, "kl", counting("kl", metrics.kl))
        monkeypatch.setattr(metrics, "pair_divergence", counting("pairs", metrics.pair_divergence))
        inputs = [
            arg for role in ("news", "bodies", "behaviors") for arg in (f"--{role}", str(fixture_paths[role]))
        ]
        out_dir = tmp_path / "out"
        code = main(["evaluate", *inputs, "--divergence", "kl", "--cutoffs", "0", "--out", str(out_dir)])
        assert code == 0
        assert calls == {"smoothed": 20, "kl": 20, "pairs": 20}


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


def test_every_output_file_goes_through_write_lines(fixture_paths, tmp_path, monkeypatch):
    """``corpus.write_lines`` is the one writer: an ``evaluate`` run and an
    ``enrich`` run write exactly the files passed to it."""
    written = []
    write_lines = corpus_module.write_lines

    def recording(path, lines):
        written.append(Path(path))
        write_lines(path, lines)

    for module in (corpus_module, report_module):
        monkeypatch.setattr(module, "write_lines", recording)
    assert main(["evaluate", *base_args(fixture_paths, tmp_path / "out")]) == 0
    assert main(["enrich", "--news", str(fixture_paths["news"]), "-o", str(tmp_path / "enriched.jsonl")]) == 0
    assert sorted(written) == sorted(path for path in tmp_path.rglob("*") if path.is_file())
    assert sorted(path.name for path in written) == ["enriched.jsonl", "report.json", "samples.csv", "skips.json"]


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

    @pytest.mark.parametrize("nulls", [{}, {"complexity": None, "chain_id": None, "political_actors": None}],
                             ids=["id-only", "null-fields"])
    def test_sidecar_without_values_changes_nothing(self, fixture_paths, tmp_path, capsys, nulls):
        args = ["enrich", *(item for role in ("news", "bodies", "lexicon", "gazetteer")
                            for item in (f"--{role}", str(fixture_paths[role])))]
        assert main([*args, "-o", str(tmp_path / "plain.jsonl")]) == 0
        plain_err = capsys.readouterr().err  # the fixture's bodies file warns once
        ids = [json.loads(line)["id"] for line in (tmp_path / "plain.jsonl").read_text(encoding="utf-8").splitlines()]
        sidecar = tmp_path / "sidecar.jsonl"
        sidecar.write_text("".join(json.dumps({"id": article_id, **nulls}) + "\n" for article_id in ids),
                           encoding="utf-8")
        assert main([*args, "--sidecar", str(sidecar), "-o", str(tmp_path / "enriched.jsonl")]) == 0
        assert (tmp_path / "enriched.jsonl").read_bytes() == (tmp_path / "plain.jsonl").read_bytes()
        assert capsys.readouterr().err == plain_err

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
            (["enrich", "-o", "enriched.jsonl"], "error: --news is required for this command"),
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

    @pytest.mark.parametrize("command", ["evaluate", "recommend"])
    @pytest.mark.parametrize(
        "line,message",
        [
            ("\tU4\t2019-11-12T12:00:00Z\t\tN1-1", "empty impression id"),
            ("I4|I5\tU4\t2019-11-12T12:00:00Z\t\tN1-1", "impression id 'I4|I5' contains '|'"),
            (
                "I4\tU4\t2019-11-12T12:00:00Z\t\tN1-1 N2-0 N3-0 N4-0 N1-1",
                "duplicate candidates in the pool of impression 'I4': N1",
            ),
        ],
        ids=["empty-id", "pipe-in-id", "repeated-candidate"],
    )
    def test_malformed_behaviors_impression_is_input_error(
        self, fixture_paths, tmp_path, capsys, command, line, message
    ):
        behaviors = tmp_path / "behaviors.tsv"
        lines = fixture_paths["behaviors"].read_text(encoding="utf-8").splitlines()
        behaviors.write_text("\n".join([*lines, line]) + "\n", encoding="utf-8")
        out = tmp_path / "out"
        if command == "evaluate":
            args = ["evaluate", *base_args({**fixture_paths, "behaviors": behaviors}, out)]
        else:
            args = ["recommend", "--behaviors", str(behaviors), "--strategy", "random", "-o", str(out)]
        assert main(args) == 1
        assert f"error: {behaviors}:4: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("stamp", ["0001-01-01T00:00:00+01:00", "9999-12-31T23:59:59-05:00"])
    def test_stamp_outside_the_utc_years_is_input_error(self, fixture_paths, tmp_path, capsys, stamp):
        behaviors = tmp_path / "behaviors.tsv"
        lines = fixture_paths["behaviors"].read_text(encoding="utf-8").splitlines()
        behaviors.write_text("\n".join([*lines, f"I4\tU4\t{stamp}\t\tN1-1 N2-0"]) + "\n", encoding="utf-8")
        out = tmp_path / "out"
        args = base_args({**fixture_paths, "behaviors": behaviors}, out, "--pool", "daily")
        assert main(["evaluate", *args]) == 1
        message = f"error: {behaviors}:4: timestamp {stamp!r} is outside years 1-9999 in UTC"
        assert message in capsys.readouterr().err
        assert not out.exists()

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

    # Values that only library callers can give: the CLI and config files
    # parse counts with int().
    @pytest.mark.parametrize(
        "fields,message",
        [
            ({"cutoffs": [2.0]}, "cutoff must be an int or None, got 2.0"),
            ({"pairs": 1.5}, "fragmentation_pairs must be an int, got 1.5"),
        ],
    )
    def test_validate_names_a_count_that_is_no_int(self, fields, message):
        with pytest.raises(InputError, match=f"^{message}$"):
            RunConfig(**fields).validate()

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


class TestRepeatedOptions:
    def test_config_key_set_twice_names_both_lines(self, fixture_paths, tmp_path, capsys):
        config_path = tmp_path / "run.cfg"
        config_path.write_text("seed = 1\n\nseed = 2\n", encoding="utf-8")
        out_dir = tmp_path / "out"
        assert main(["evaluate", *base_args(fixture_paths, out_dir), "--config", str(config_path)]) == 1
        assert f"error: {config_path}:3: duplicate key 'seed' (first on line 1)" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_external_flag_given_twice_is_input_error(self, fixture_paths, tmp_path, capsys):
        out_dir = tmp_path / "out"
        missing = tmp_path / "missing.jsonl"
        args = base_args(fixture_paths, out_dir, "--cutoffs", "0")
        code = main(
            ["evaluate", *args, "--external", f"m={missing}", "--external", f"m={fixture_paths['recommendations']}"]
        )
        assert code == 1
        assert capsys.readouterr().err == "error: --external 'm' is given twice\n"
        assert not out_dir.exists()

    def test_recommender_listed_twice_is_input_error(self, fixture_paths, tmp_path, capsys):
        out_dir = tmp_path / "out"
        assert main(["evaluate", *base_args(fixture_paths, out_dir, "--recommenders", "random,random")]) == 1
        assert capsys.readouterr().err == "error: recommenders list has duplicates: random, random\n"
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "command,flag,values",
        [
            ("evaluate", "--seed", ["1", "2"]),
            ("evaluate", "--pool", ["daily", "impression"]),
            ("sensitivity", "--cutoffs", ["0", "0"]),
            ("enrich", "--output", ["a.jsonl", "b.jsonl"]),
        ],
    )
    def test_flag_given_twice_is_input_error(self, fixture_paths, tmp_path, capsys, command, flag, values):
        args = base_args(fixture_paths, tmp_path / "out")
        if command == "enrich":  # enrich has no --out
            args, values = args[:-2], [str(tmp_path / value) for value in values]
        assert main([command, *args, flag, values[0], flag, values[1]]) == 1
        assert capsys.readouterr().err == f"error: newsdiv {command}: {flag} is given twice\n"
        assert list(tmp_path.iterdir()) == []


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


def _external_rows(out_dir):
    report = json.loads((out_dir / "report.json").read_text())
    return report["config"]["externals"], [
        row for row in report["rows"] if row["recommender"] == "external:m"
    ]


class TestOptionRules:
    def test_external_flag_beats_the_config_file(self, fixture_paths, tmp_path):
        from_file = fixture_paths["recommendations"]
        from_flag = tmp_path / "reversed.jsonl"
        records = [json.loads(line) for line in from_file.read_text(encoding="utf-8").splitlines()]
        from_flag.write_text(
            "".join(
                json.dumps({**record, "ranked_item_ids": record["ranked_item_ids"][::-1]}) + "\n"
                for record in records
            ),
            encoding="utf-8",
        )
        config_path = tmp_path / "run.cfg"
        config_path.write_text(f"external.m = {from_file}\n", encoding="utf-8")

        def run(name, *extra):
            out_dir = tmp_path / name
            assert main(["evaluate", *base_args(fixture_paths, out_dir, "--cutoffs", "0"), *extra]) == 0
            return _external_rows(out_dir)

        both = run("both", "--config", str(config_path), "--external", f"m={from_flag}")
        flag_only = run("flag", "--external", f"m={from_flag}")
        file_only = run("file", "--config", str(config_path))
        assert both[0] == {"m": str(from_flag)}
        assert both[1] == flag_only[1]
        assert flag_only[1] != file_only[1]

    @pytest.mark.parametrize("flags", [["--divergences", ","], ["--weightings", ","], ["--cutoffs", ","]])
    def test_empty_sweep_list_flag_is_input_error(self, fixture_paths, tmp_path, capsys, flags):
        out_dir = tmp_path / "out"
        assert main(["sensitivity", *base_args(fixture_paths, out_dir), *flags]) == 1
        assert f"error: {flags[0][2:]} must be a non-empty list" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("key", ["divergences", "weightings"])
    def test_empty_sweep_list_key_names_its_line(self, fixture_paths, tmp_path, capsys, key):
        config_path = tmp_path / "run.cfg"
        config_path.write_text(f"seed = 1\n{key} =\n", encoding="utf-8")
        out_dir = tmp_path / "out"
        args = ["sensitivity", *base_args(fixture_paths, out_dir), "--config", str(config_path)]
        assert main(args) == 1
        assert f"error: {config_path}:2: {key} must be a non-empty list" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_empty_out_flag_is_input_error(self, fixture_paths, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["evaluate", *base_args(fixture_paths, "")]) == 1
        assert capsys.readouterr().err == "error: invalid value for out: ''\n"
        assert list(tmp_path.iterdir()) == []

    def test_empty_out_key_names_its_line(self, fixture_paths, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        config_path = tmp_path / "run.cfg"
        config_path.write_text("seed = 1\nout =\n", encoding="utf-8")
        args = [*base_args(fixture_paths, "unused")[:-2], "--config", str(config_path)]
        assert main(["evaluate", *args]) == 1
        assert capsys.readouterr().err == f"error: {config_path}:2: invalid value for out: ''\n"
        assert list(tmp_path.iterdir()) == [config_path]

    def test_missing_external_is_reported_before_any_input_is_read(
        self, fixture_paths, tmp_path, capsys
    ):
        behaviors = tmp_path / "behaviors.tsv"
        behaviors.write_text("not a behaviors line\n", encoding="utf-8")
        missing = tmp_path / "missing.jsonl"
        code = main(
            [
                "evaluate",
                "--news", str(fixture_paths["news"]),
                "--behaviors", str(behaviors),
                "--external", f"m={missing}",
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 1
        assert capsys.readouterr().err == f"error: external recommendations file not found: {missing}\n"

    def test_defaults_are_the_library_defaults(self):
        config = RunConfig()
        assert config.metric_config() == MetricConfig()
        assert config.tau == DEFAULT_TAU
        assert config.window_days * 86400.0 == DEFAULT_WINDOW_SECONDS

    def test_bin_counts_pass_straight_to_the_library(self):
        config = RunConfig.from_options({"bins": "3", "complexity_bins": "4"})
        assert config.metric_config() == MetricConfig(activation_bins=3, complexity_bins=4)


def _subcommand_flags() -> dict[str, set[str]]:
    """The flag destinations of each subcommand of the CLI parser."""
    (subparsers,) = [
        action for action in build_parser()._actions if isinstance(action, argparse._SubParsersAction)
    ]
    return {
        command: {action.dest for action in parser._actions}
        for command, parser in subparsers.choices.items()
    }


class TestFlagsMatchOptionKeys:
    def test_every_flag_is_an_option_key(self):
        for command, dests in _subcommand_flags().items():
            unread = dests - OPTION_KEYS - {"help", "config", "output", "strategy", "externals"}
            assert unread == set(), command

    def test_every_option_key_is_a_flag(self):
        flags = set().union(*_subcommand_flags().values())
        assert OPTION_KEYS - flags == {"activation_bins", "complexity_bins"}
