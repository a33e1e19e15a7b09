"""The byte-identity invariant: every case of ``golden.py`` writes the files
whose sha256 ``golden.json`` holds.

The digests were made with CPython 3.11.7 on Linux (Debian 12, glibc 2.36),
the interpreter that ``.github/workflows/tests.yml`` pins.  The sample
values come from ``math.log2``, so another libm could move a last digit:
the CI runner's glibc differs from that host's, and until CI has run these
digests are unverified there.
"""
import json

import pytest

import golden
from newsdiv import evaluate


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    golden.prepare(root)
    return root


@pytest.mark.parametrize("name", list(golden.CASES))
def test_outputs_match_their_digests(name, inputs, monkeypatch):
    monkeypatch.chdir(inputs)
    gate = golden.CASES[name][0]
    if gate is not None:
        monkeypatch.setattr(evaluate, "_FORK_MIN_WORK", gate)
    assert golden.run(name) == json.loads(golden.GOLDEN.read_text(encoding="utf-8"))[name]
