"""Datasets d1-d5 and query workloads Q1-Q6 (paper Section 5.1, Appendix A).

The paper classifies queries along two axes (Table 2): **selectivity**
(h: ~1% of nodes, m: ~10%, l: the most common patterns) and
**topology** (c: chain, b: branching).  Appendix A instantiates the
six categories per dataset; since our generators reproduce the paper
datasets' *structure* rather than their exact content, the queries
below keep each original's category and shape (axis mix, branch count,
tag roles) with tags adapted to the generated documents.  The
Table-2 reproduction test asserts the measured selectivities respect
``h < m < l`` per dataset with h below 2%.

Every query is a pure path expression — the paper eliminates
value-based constraints from the join experiments (Section 5.1) — and
has at least two NoK subtrees after decomposition, per the topology
requirement.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable

from repro.xmlkit.tree import Document
from repro.xpath.evaluator import evaluate_xpath
from repro.datagen.dblp import generate_d5
from repro.datagen.synthetic import generate_d1
from repro.datagen.treebank import generate_d4
from repro.datagen.xbench import generate_d2, generate_d3

__all__ = ["QuerySpec", "DatasetSpec", "DATASETS", "measure_selectivity"]


@dataclass(frozen=True)
class QuerySpec:
    """One benchmark query: id, Table-2 category, path text."""

    qid: str         # "Q1".."Q6"
    category: str    # "hc","hb","mc","mb","lc","lb" — or "" (d5 has none)
    text: str

    @property
    def topology(self) -> str:
        return self.category[1] if self.category else ""


@dataclass(frozen=True)
class DatasetSpec:
    """One benchmark dataset: generator plus its Table-1 identity."""

    name: str
    generator: Callable[..., Document]
    recursive: bool
    origin: str                 # what the paper used
    queries: tuple[QuerySpec, ...]

    def generate(self, scale: float = 1.0) -> Document:
        return self.generator(scale=scale)

    def query(self, qid: str) -> QuerySpec:
        for spec in self.queries:
            if spec.qid == qid:
                return spec
        raise KeyError(qid)


DATASETS: dict[str, DatasetSpec] = {
    "d1": DatasetSpec(
        "d1", generate_d1, recursive=True,
        origin="synthetic document from a recursive DTD",
        queries=(
            QuerySpec("Q1", "hc", "//a//b4"),
            QuerySpec("Q2", "hb", "//a[//b2][//b1]//b3"),
            QuerySpec("Q3", "mc", "//a//c2/b1/c2/b1/c2//b1"),
            QuerySpec("Q4", "mb", "//a//c2/b1/c2[//c1]/b1//c3"),
            QuerySpec("Q5", "lc", "//b1//c2//b1"),
            QuerySpec("Q6", "lb", "//b1//c2[//c3]//b1"),
        )),
    "d2": DatasetSpec(
        "d2", generate_d2, recursive=False,
        origin="XBench address.xml",
        queries=(
            QuerySpec("Q1", "hc", "//addresses//address//country_id"),
            QuerySpec("Q2", "hb", "//address[//zip_code][//country_id]"),
            QuerySpec("Q3", "mc", "//addresses//address//name_of_state"),
            QuerySpec("Q4", "mb",
                      "//address[//name_of_state][//zip_code]//street_address"),
            QuerySpec("Q5", "lc", "//address[//street_address]"),
            QuerySpec("Q6", "lb",
                      "//address[//street_address][//zip_code][//name_of_city]"),
        )),
    "d3": DatasetSpec(
        "d3", generate_d3, recursive=False,
        origin="XBench catalog.xml",
        queries=(
            QuerySpec("Q1", "hc", "//item/attributes//length"),
            QuerySpec("Q2", "hb", "//item[attributes//length][//subtitle]//isbn"),
            QuerySpec("Q3", "mc", "//item//street_address"),
            QuerySpec("Q4", "mb",
                      "//item[//street_information][//mailing_address]//street_address"),
            QuerySpec("Q5", "lc", "//author//name/*"),
            QuerySpec("Q6", "lb", "//author[//first_name][//last_name]/name/*"),
        )),
    "d4": DatasetSpec(
        "d4", generate_d4, recursive=True,
        origin="UW repository Treebank (Penn Treebank parse trees)",
        queries=(
            QuerySpec("Q1", "hc", "//VP/VP/NP//NN"),
            QuerySpec("Q2", "hb", "//VP[VP]//VP[PP]/NP/NN"),
            QuerySpec("Q3", "mc", "//VP//PP/NP//NN"),
            QuerySpec("Q4", "mb", "//VP[//SBAR]//NP//NN"),
            QuerySpec("Q5", "lc", "//S//VP//NP"),
            QuerySpec("Q6", "lb", "//S[//PP]//VP//NP"),
        )),
    "d5": DatasetSpec(
        "d5", generate_d5, recursive=False,
        origin="UW repository dblp snapshot",
        # The paper's Appendix assigns no h/m/l categories to d5.
        queries=(
            QuerySpec("Q1", "", "//phdthesis//author"),
            QuerySpec("Q2", "", "//phdthesis[//author][//school]"),
            QuerySpec("Q3", "", "//www[//url]"),
            QuerySpec("Q4", "", "//www[//editor][//title][//year]"),
            QuerySpec("Q5", "", "//proceedings[//editor]"),
            QuerySpec("Q6", "", "//proceedings[//editor][//year][//url]"),
        )),
}


def measure_selectivity(doc: Document, query: str) -> float:
    """Fraction of the document's elements a path query returns."""
    n_elements = doc.derived.stats.n_elements
    if n_elements == 0:
        return 0.0
    return len(evaluate_xpath(doc, query)) / n_elements
