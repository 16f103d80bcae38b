"""Fixtures shared across the test modules."""

import pytest

from ccgscope.chart import parse
from ccgscope.cli import tokenize
from ccgscope.lexicon import default_lexicon


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
