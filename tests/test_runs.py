"""Whole runs on mutated inputs: after one line or cell of one input file is
deleted, duplicated or replaced, every subcommand with any of its flags
exits 0 or 1, never 2, and an exit 1 names the line, the flag or the config
key at fault.  The loader fuzz in ``test_inputs.py`` reads each file alone;
this one also reaches the places where inputs meet and the scoring."""
import contextlib
import io
import json
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from newsdiv.cli import main
from newsdiv.config import OPTION_KEYS
from test_inputs import CELLS, FIELDS, JSON_VALUES, LINES

TSV_ROLES = ("news", "behaviors", "lexicon")
JSON_ROLES = ("bodies", "gazetteer", "sidecar", "recommendations")

# Sidecar counts up to ones whose float or whose sum overflows.
COUNTS = st.sampled_from([0, 3, 2**53, 2**53 + 1, 10**308, 10**400])

# (operation, line index, replacement); an index past the end takes the
# last line.  A cell's replacement is (column, text, field, value): a TSV
# line takes the text in that column, a JSON line the value in that field.
MUTATIONS = st.one_of(
    st.tuples(st.sampled_from(["delete", "duplicate"]), st.integers(0, 10), st.none()),
    st.tuples(st.just("line"), st.integers(0, 10), LINES),
    st.tuples(
        st.just("cell"),
        st.integers(0, 10),
        st.tuples(st.integers(0, 5), CELLS, st.sampled_from(FIELDS), JSON_VALUES | COUNTS),
    ),
)

_METRIC_FLAGS = {
    "--alpha": ["5e-324", "1e-310", "0.001"],
    "--cutoffs": ["0", "1", "2,0"],
    "--bins": ["2", "10"],
    "--pairs": ["1", "5"],
    "--pool": ["impression", "daily"],
    "--recommenders": ["random,popular", "popular", ","],
    "--seed": ["0", "42"],
}
# Per subcommand, its required flags and its optional ones, each with the
# values to draw from.
COMMAND_FLAGS = {
    "enrich": ({}, {"--tau": ["0.5", "1"], "--window-days": ["0", "3"]}),
    "recommend": ({"--strategy": ["random", "popular"]}, {"--seed": ["0", "42"]}),
    "evaluate": ({}, {**_METRIC_FLAGS, "--divergence": ["js", "kl"], "--weighting": ["none", "mrr", "ndcg"]}),
    "sensitivity": (
        {}, {**_METRIC_FLAGS, "--divergences": ["js", "kl", "js,kl"], "--weightings": ["none", "mrr,ndcg"]}
    ),
}


def _flags(command):
    required, optional = (
        {name: st.sampled_from(values) for name, values in flags.items()} for flags in COMMAND_FLAGS[command]
    )
    return st.fixed_dictionaries(required, optional=optional).map(
        lambda flags: (command, tuple(item for flag in flags.items() for item in flag))
    )


RUNS = st.sampled_from(sorted(COMMAND_FLAGS)).flatmap(_flags)


def mutated(lines, role, mutation):
    """The bytes of ``lines`` (one file's, without line endings) after ``mutation``."""
    operation, index, replacement = mutation
    lines = list(lines)
    index = min(index, len(lines) - 1)
    if operation == "delete":
        del lines[index]
    elif operation == "duplicate":
        lines.insert(index, lines[index])
    elif operation == "line":
        lines[index] = replacement.replace(b"\n", b"")
    else:
        column, text, name, value = replacement
        if role in TSV_ROLES:
            cells = lines[index].split(b"\t")
            cells[min(column, len(cells) - 1)] = text.replace("\n", " ").encode("utf-8")
            lines[index] = b"\t".join(cells)
        else:
            lines[index] = json.dumps({**json.loads(lines[index]), name: value}).encode("utf-8")
    return b"".join(line + b"\n" for line in lines)


def run_argv(command, flags, paths, out_dir):
    inputs = [item for role in ("news", "bodies", "behaviors", "lexicon", "gazetteer", "sidecar")
              for item in (f"--{role}", str(paths[role]))]
    if command in ("enrich", "recommend"):
        return [command, *inputs, *flags, "-o", str(out_dir / f"{command}.jsonl")]
    return [command, *inputs, *flags, "--external", f"x={paths['recommendations']}", "--out", str(out_dir)]


def names_its_cause(message, paths):
    """Whether an error message starts with an input's ``path:lineno`` or
    with a config key, or names a flag."""
    text = message.removeprefix("error: ")
    if any(re.match(f"{re.escape(str(path))}:\\d+: ", text) for path in paths.values()):
        return True
    return re.search(r"(^|\s)--[a-z]", text) is not None or text.split(" ", 1)[0] in OPTION_KEYS


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("runs")


@settings(max_examples=150, deadline=None)
@given(role=st.sampled_from(TSV_ROLES + JSON_ROLES), mutation=MUTATIONS, run=RUNS)
# The smallest subnormal alpha underflows in kl's smoothing; and a count
# too large for a float, or two whose sum overflows one, reach the voices.
@example(role="sidecar", mutation=("delete", 2, None), run=("evaluate", ("--divergence", "kl", "--alpha", "5e-324")))
@example(role="sidecar", mutation=("delete", 2, None), run=("sensitivity", ("--alpha", "5e-324")))
@example(role="sidecar", mutation=("cell", 0, (0, "", "minority_mentions", 10**400)), run=("evaluate", ()))
@example(
    role="sidecar",
    mutation=("line", 0, json.dumps({"id": "N7", "minority_mentions": 10**308, "majority_mentions": 10**308}).encode()),
    run=("evaluate", ()),
)
def test_a_mutated_input_exits_zero_or_names_its_cause(fixture_paths, run_dir, role, mutation, run):
    command, flags = run
    paths = dict(fixture_paths)
    paths[role] = run_dir / paths[role].name
    paths[role].write_bytes(mutated(fixture_paths[role].read_bytes().splitlines(), role, mutation))
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
        code = main(run_argv(command, flags, paths, run_dir / "out"))
    err = stderr.getvalue()
    assert code in (0, 1), err
    assert "internal error" not in err
    if code == 1:
        errors = [line for line in err.splitlines() if line.startswith("error: ")]
        assert errors and names_its_cause(errors[-1], paths), err
