import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import newsdiv
from conftest import FIXTURES
from newsdiv.seeding import derive_seed


@pytest.mark.parametrize("seed, label", [(0, ""), (7, "fragmentation"), (42, "random:I17"), (-3, "é")])
def test_derive_seed_is_the_first_eight_bytes_of_a_sha256(seed, label):
    digest = hashlib.sha256(f"{seed}:{label}".encode("utf-8")).digest()
    assert derive_seed(seed, label) == int.from_bytes(digest[:8], "big")


@pytest.mark.parametrize("seed", [1.0, False, "7"])
def test_derive_seed_takes_an_int_only(seed):
    """1.0 formats as "1.0" and draws other values than 1; False as "False"."""
    with pytest.raises(TypeError, match=f"^seed must be an int, got {seed!r}$"):
        derive_seed(seed, "random:I17")


def test_enrich_leaves_hashlib_unloaded(tmp_path):
    """hashlib maps OpenSSL (about 3 MB of RSS); it is imported when the
    first seed is drawn, so a run that draws none does without it."""
    inputs = [f"--{name}={FIXTURES / file}" for name, file in [
        ("news", "news.tsv"), ("bodies", "bodies.jsonl"), ("behaviors", "behaviors.tsv"),
        ("lexicon", "lexicon.tsv"), ("gazetteer", "gazetteer.jsonl"), ("sidecar", "sidecar.jsonl"),
    ]]
    code = (
        "import sys, newsdiv\n"
        "from newsdiv.cli import main\n"
        f"assert main(['enrich', *{inputs!r}, '--output', {str(tmp_path / 'enriched.jsonl')!r}]) == 0\n"
        "print('hashlib' in sys.modules)\n"
    )
    source = Path(newsdiv.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(source)}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert (result.returncode, result.stdout.splitlines()[-1]) == (0, "False")
