"""Fuzzing the front ends: no input may crash with anything but the
library's own typed errors.

The tokenizer, tree parser, XPath parser and FLWOR parser are all
hand-written; these suites feed them hostile input and assert the
failure contract: a :class:`~repro.errors.ReproError` subclass or a
clean parse — never ``IndexError``/``RecursionError``/silent garbage.
"""

from __future__ import annotations

import pytest

from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.errors import QuerySyntaxError, ReproError, XMLSyntaxError
from repro.xmlkit import parse, serialize
from repro.xmlkit.tokenizer import tokenize
from repro.xpath.parser import parse_xpath
from repro.xquery.parser import parse_query

FUZZ_SETTINGS = settings(max_examples=150, deadline=None,
                         suppress_health_check=[HealthCheck.too_slow])

_xmlish = st.text(
    alphabet=st.sampled_from(list("<>/=&;'\"ab1 \n![CDATA-?")), max_size=60)
_queryish = st.lists(
    st.sampled_from(list("/[]@$.*()=<>! abfor0123456789\"'{},:+-\n")
                    + ["//", "::", "and", "$x", "not(", "for $x in ",
                       " return ", "<k>", "</k>", "(:", ":)", "1.5"]),
    max_size=120).map("".join)

#: Inputs that used to escape as ValueError (from ``float``) or
#: RecursionError: both are QuerySyntaxError now.
_HOSTILE = ["//b[t=1.2.3]", "1..2", "(" * 400, "not(" * 400, "//a" + "[b" * 400,
            "(" * 400 + "a" + ")" * 400, "<k>" * 400,
            "for $x in //a return " * 400 + "$x",
            "//a[" + "9" * 400 + "]"]


def _hostile(test):
    for text in _HOSTILE:
        test = example(text)(test)
    return test


class TestTokenizerFuzz:
    @FUZZ_SETTINGS
    @given(text=_xmlish)
    @example("<a b=>")
    @example("<!DOCTYPE")
    @example("<a>&#xZZ;</a>")
    @example("<?x")
    def test_never_crashes(self, text):
        try:
            list(tokenize(text))
        except XMLSyntaxError:
            pass
        except ValueError as exc:
            # numeric character references can overflow chr(); that must
            # surface as a typed error, not a bare ValueError.
            pytest.fail(f"untyped error: {exc!r}")

    @FUZZ_SETTINGS
    @given(text=_xmlish)
    def test_parser_never_crashes(self, text):
        try:
            parse(text)
        except ReproError:
            pass

    @FUZZ_SETTINGS
    @given(text=st.text(max_size=40))
    def test_arbitrary_unicode_content_round_trips(self, text):
        if any(ch in text for ch in "<>&\r"):
            return  # escaped forms covered elsewhere; \r normalizes
        doc_text = f"<a>{text}</a>"
        try:
            doc = parse(doc_text)
        except ReproError:
            return
        assert parse(serialize(doc.root)).root.string_value() == \
            doc.root.string_value()


class TestQueryParserFuzz:
    @FUZZ_SETTINGS
    @given(text=_queryish)
    @example("//")
    @example("$")
    @example("a[")
    @example("//a[//b")
    @example("for $x in")
    @_hostile
    def test_xpath_never_crashes(self, text):
        try:
            parse_xpath(text)
        except QuerySyntaxError:
            pass

    @FUZZ_SETTINGS
    @given(text=_queryish)
    @example("<a>{")
    @example("for $x in //a return <b>")
    @example("(: unterminated")
    @example("<k>it's {1.2.3}</k>")
    @_hostile
    def test_query_never_crashes(self, text):
        try:
            parse_query(text)
        except QuerySyntaxError:
            pass
