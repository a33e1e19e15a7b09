import csv
import tempfile
from array import array
from pathlib import Path

from hypothesis import given, settings, strategies as st

from newsdiv.metrics import Columns, Rows
from newsdiv.report import SAMPLE_COLUMNS, read_samples_csv, write_samples_csv
from views import named_samples

# Text with every character that a csv.writer may quote, and some that it does not.
TEXT = st.text(alphabet=st.sampled_from(list(',"\r\n ab|:\'\t')), max_size=6)
KEYS = st.tuples(TEXT, TEXT, TEXT, TEXT, st.integers(0, 20))
SAMPLES = st.lists(st.tuples(TEXT, st.floats()), max_size=6)


def reference_csv(rows, path):
    """What write_samples_csv wrote when each line went through csv.writer."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, quoting=csv.QUOTE_MINIMAL, lineterminator="\n")
        writer.writerow(SAMPLE_COLUMNS)
        for key, both in rows.items():
            writer.writerows((*key, pair_id, repr(value)) for pair_id, value in zip(*both.samples))


class TestSamplesCsv:
    @settings(max_examples=300, deadline=None)
    @given(st.dictionaries(KEYS, SAMPLES, max_size=4))
    def test_bytes_match_a_csv_writer(self, samples):
        rows = {
            key: Rows(Columns([pair_id for pair_id, _ in pairs], array("d", [value for _, value in pairs])), Columns([], []))
            for key, pairs in samples.items()
        }
        with tempfile.TemporaryDirectory() as root:
            written, expected = Path(root, "written.csv"), Path(root, "expected.csv")
            write_samples_csv(rows, written)
            reference_csv(rows, expected)
            assert written.read_bytes() == expected.read_bytes()

    def test_quoted_fields_read_back(self, tmp_path):
        rows = {("m", 'external:m,"x"', "js", "mrr", 0): Rows(Columns(["I1", "a,b", 'q"\n'], array("d", [0.5, 0.25, 1.0])), Columns([], []))}
        write_samples_csv(rows, tmp_path / "samples.csv")
        read = named_samples(read_samples_csv(tmp_path / "samples.csv"))
        assert [(row.recommender, row.pair_id, row.value) for row in read] == [
            ('external:m,"x"', "I1", 0.5), ('external:m,"x"', "a,b", 0.25), ('external:m,"x"', 'q"\n', 1.0)
        ]
