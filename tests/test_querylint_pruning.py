"""Fixed cases of the generated differential (``test_where_pushdown``)
for the query lint: every query answers as the navigational oracle
(``strategy="naive"``, which never lints) does — static-empty plans,
warning-only findings and a finding on an optional branch, on SMALL_BIB
(bib/book@year/title/author/last/price) and on every workload query
(at scale 0.02 the rare labels vanish and the rewrite fires), serially,
in parallel and under explicit strategies.
"""

import pytest

from repro.datagen.workload import DATASETS
from repro.engine import Engine

#: A finding on an optional branch: reported, the branch kept.
OPTIONAL_BRANCH = "for $b in //book let $z := $b/zzz/qqq return $b/title"
REWRITTEN_QUERIES = [
    "//zzz/title",                                         # QL001 s-empty
    "//title/book",                                        # QL002 s-empty
    "//author//price",                                     # QL002 s-empty
    '//book[@year = "1994" and @year = "2000"]/title',     # QL003 s-empty
    "//book[@year > 2005 and @year < 2000]/title",         # QL003 s-empty
    '//book[@isbn = "1"]/title',                           # QL006 s-empty
    "for $b in //book where 1 = 2 return $b/title",        # QL004 s-empty
    "for $b in //book where $b/zzz return $b/title",       # QL004 s-empty
    "for $b in //book return $b/zzz",                      # return-empty
    "<out>{ for $b in //book where 1 = 2 "
    "return $b/title }</out>",                             # constructor
    "for $b in //book where 1 = 1 return $b/title",        # QL005
    "for $b in //book where not($b/zzz) return $b/title",  # QL005
    OPTIONAL_BRANCH,
]


def differential(doc, text, **kwargs):
    """The query under ``kwargs`` answers as the oracle does."""
    answer = Engine(doc).query(text, **kwargs).serialize()
    assert answer == Engine(doc).query(text, strategy="naive").serialize()


def workload(name, scale, **kwargs):
    dataset = DATASETS[name]
    doc = dataset.generate(scale=scale)
    for spec in dataset.queries:
        differential(doc, spec.text, **kwargs)
    return doc


def plan_of(doc, text):
    return Engine(doc).query(text).plan


class TestHandWrittenRewrites:
    @pytest.mark.parametrize("text", REWRITTEN_QUERIES)
    def test_serial(self, small_bib, text):
        differential(small_bib, text)

    @pytest.mark.parametrize("text", REWRITTEN_QUERIES)
    def test_parallel(self, small_bib, text):
        differential(small_bib, text, executor="threads:2")

    def test_rewrites_actually_fired(self, small_bib):
        # The suite is vacuous if nothing was rewritten.
        assert "static-empty" in plan_of(small_bib, "//zzz/title")
        assert "static-empty" not in plan_of(small_bib, OPTIONAL_BRANCH)


class TestWorkloadDifferential:
    @pytest.mark.parametrize("scale", [0.1, 0.02])
    @pytest.mark.parametrize("name", sorted(DATASETS))
    def test_serial(self, name, scale):
        workload(name, scale)

    @pytest.mark.parametrize("name", sorted(DATASETS))
    def test_parallel(self, name):
        workload(name, 0.1, executor="threads:2")

    def test_small_scale_rewrites_fire(self):
        # d1 Q1 targets the ~1% label b4: absent at scale 0.02.
        doc = workload("d1", 0.02)
        assert "static-empty" in plan_of(doc, DATASETS["d1"].queries[0].text)


class TestExplicitStrategies:
    @pytest.mark.parametrize("strategy",
                             ["pipelined", "stack", "twigstack", "auto"])
    def test_static_empty_across_strategies(self, small_bib, strategy):
        differential(small_bib, "//zzz/title", strategy=strategy)

    # twigstack refuses optional modes outright.
    @pytest.mark.parametrize("strategy", ["pipelined", "stack", "auto"])
    def test_pruned_let_across_strategies(self, small_bib, strategy):
        differential(small_bib, OPTIONAL_BRANCH, strategy=strategy)
