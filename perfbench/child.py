"""Child processes that the benchmark times.

``child.py load --news N --bodies B --behaviors L --lexicon X --gazetteer G
[--external R]`` imports newsdiv and runs only its input loaders, so that
its wall time is the set-up cost of a workload.

``child.py trace SPANS -- <newsdiv arguments>`` runs the CLI in this
process with spans around the public functions of each newsdiv module.
Each function is wrapped at the attribute its caller looks it up on: cli.py
imports the enrichment, evaluation, recommender and writer functions into
its own namespace, and metrics.py imports the distribution and divergence
functions into its own.  Spans stay in memory and are written to
``SPANS.json`` (names, counts and facts) and ``SPANS.bin`` (four arrays)
when the CLI returns.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from array import array


class Recorder:
    """Nested spans of one thread: name, parent span, start and end."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts: dict[str, int] = {}
        self.facts: dict[str, int] = {}

    def wrap(self, owner, attr: str, observe=None) -> None:
        """Replace ``owner.attr`` with a function that records a span named
        ``<defining module>.<function>`` around each call."""
        function = getattr(owner, attr)
        name = f"{function.__module__.rsplit('.', 1)[-1]}.{function.__name__}"
        name_id = self.name_ids.setdefault(name, len(self.name_ids))
        if name_id == len(self.names):
            self.names.append(name)
        clock = time.perf_counter
        stack = self.stack

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            index = len(self.start)
            self.name_of.append(name_id)
            self.parent.append(stack[-1])
            self.end.append(0.0)
            stack.append(index)
            self.start.append(clock())
            try:
                result = function(*args, **kwargs)
            finally:
                self.end[index] = clock()
                stack.pop()
            if observe is not None:
                observe(result)
            return result

        setattr(owner, attr, wrapper)

    def count(self, owner, attr: str, name: str) -> None:
        """Count calls of ``owner.attr`` without a span."""
        function = getattr(owner, attr)
        counts = self.counts
        counts[name] = 0

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return function(*args, **kwargs)

        setattr(owner, attr, wrapper)

    def dump(self, prefix: str) -> None:
        header = {"names": self.names, "spans": len(self.start), "counts": self.counts, "facts": self.facts}
        with open(prefix + ".json", "w", encoding="utf-8") as handle:
            json.dump(header, handle)
        with open(prefix + ".bin", "wb") as handle:
            for column in (self.name_of, self.parent, self.start, self.end):
                column.tofile(handle)


def instrument(recorder: Recorder) -> None:
    from newsdiv import cli, corpus, distrib, enrich, evaluate, metrics

    facts = recorder.facts

    def evaluated(result) -> None:
        facts["samples"] = facts.get("samples", 0) + len(result.samples)
        facts["skips"] = facts.get("skips", 0) + len(result.skips)

    def chained(assignment) -> None:
        facts["chains"] = len(set(assignment.values()))

    targets = [
        (corpus, "load_catalog"), (corpus, "load_behaviors"), (corpus, "load_recommendations"),
        (corpus, "missing_article_ids"),
        (cli, "load_lexicon"), (cli, "load_gazetteer"),
        (cli, "enrich_corpus"), (cli, "dump_enriched"),
        (enrich, "assign_missing_timestamps"), (enrich, "complexity"), (enrich, "activation"),
        (enrich, "tag_entities"),
        (cli, "recommend_random"), (cli, "recommend_popular"), (cli, "click_counts"),
        (evaluate, "sample_fragmentation"),
        (metrics, "fragmentation_partners"), (metrics, "fragmentation"), (metrics, "pair_divergence"),
        (metrics, "build_distribution"), (metrics, "history_distribution"), (distrib, "build_distribution"),
        (metrics, "smooth_pair"),
        (metrics, "js"), (metrics, "kl"),
        (cli, "aggregate_rows"), (cli, "write_report"), (cli, "write_samples_csv"), (cli, "write_skips"),
    ]
    for owner, attr in targets:
        recorder.wrap(owner, attr)
    recorder.wrap(cli, "evaluate_recommendations", observe=evaluated)
    recorder.wrap(enrich, "chain_articles", observe=chained)
    recorder.count(distrib.DiscreteDistribution, "__init__", "distrib.DiscreteDistribution")


def main(argv: list[str]) -> int:
    if argv and argv[0] == "trace":
        prefix, separator, *cli_args = argv[1:]
        if separator != "--":
            raise SystemExit("usage: child.py trace SPANS -- <newsdiv arguments>")
        recorder = Recorder()
        instrument(recorder)
        from newsdiv import cli

        code = cli.main(cli_args)
        recorder.dump(prefix)
        return code

    parser = argparse.ArgumentParser(prog="child.py load")
    parser.add_argument("mode", choices=["load"])
    for name in ("news", "bodies", "behaviors", "lexicon", "gazetteer"):
        parser.add_argument(f"--{name}", required=True)
    parser.add_argument("--external")
    args = parser.parse_args(argv)

    from newsdiv import load_behaviors, load_catalog, load_gazetteer, load_lexicon, load_recommendations

    load_catalog(args.news, args.bodies)
    impressions = load_behaviors(args.behaviors)
    load_lexicon(args.lexicon)
    load_gazetteer(args.gazetteer)
    if args.external:
        load_recommendations(args.external, impressions)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
