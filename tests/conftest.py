"""Fixtures shared across the test modules."""

import pytest

from ccgscope.chart import parse
from ccgscope.cli import tokenize
from ccgscope.lexicon import default_lexicon
from ccgscope.readings import NoParseError, readings_from_chart


@pytest.fixture(scope="session")
def chart_of():
    """The chart of a sentence under the bundled lexicon, parsed once per
    session: chart_of(sentence).  Tests that only read a chart share it.
    A test that changes a chart, or patches what parse calls, parses its
    own."""
    lex, charts = default_lexicon(), {}

    def get(sentence):
        chart = charts.get(sentence)
        if chart is None:
            chart = charts[sentence] = parse(tokenize(sentence), lex)
        return chart
    return get


@pytest.fixture(scope="session")
def readings_of(chart_of):
    """readings_from_chart(chart_of(sentence)), worked out once per
    session: readings_of(sentence).  A sentence without a parse raises
    NoParseError each time."""
    done = {}

    def get(sentence):
        if sentence not in done:
            try:
                done[sentence] = readings_from_chart(chart_of(sentence))
            except NoParseError as exc:
                done[sentence] = exc
        got = done[sentence]
        if isinstance(got, NoParseError):
            raise NoParseError(*got.args)
        return got
    return get
