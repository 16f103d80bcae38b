"""Coordination packed modulo the associativity of and.

The sentences here are long (up to 28 tokens) and stay out of corpus.txt,
whose every line the CLI benchmark parses.
"""

import pytest

from ccgscope.chart import count_derivations, derivations, parse, replay
from ccgscope.cli import tokenize
from ccgscope.lexicon import default_lexicon
from ccgscope.readings import readings_from_chart, scope_profile
from ccgscope.terms import Compound, is_and, is_quant, subterms

SUBJECT = "every dealer shows most customers three cars"
CONJUNCTS = [" but two mechanics five cars", " and all boys one car",
             " but some girl a car", " and most girls two cars"]
RNR = "every girl admired , but most boys detested , one saxophonist"

# Engine facts, recorded on the engine without associativity packing and
# kept by it: the derivations behind the readings of a cluster with k + 1
# conjuncts (for each of the Catalan-number-of-k bracketings of the
# coordinators, two derivations of the distributed reading and one of the
# wide one), and of the right-node-raising sentence.  Packing merges
# bracketings into one item, so the counts sum over them but do not change.
DERIVATIONS = {1: 3, 2: 6, 3: 15, 4: 42, "rnr": 20}


@pytest.fixture(scope="module")
def lex():
    return default_lexicon()


def sentence(case):
    return RNR if case == "rnr" else SUBJECT + "".join(CONJUNCTS[:case])


def conjuncts(t):
    """The conjuncts of a left-nested and/2 chain, left to right."""
    out = []
    while is_and(t):
        out.append(t.args[1])
        t = t.args[0]
    return [t] + out[::-1]


def holds(t, functor, pred):
    """Does t hold a functor quantifier restricted to pred?"""
    return any(is_quant(n) and n.functor == functor
               and n.args[1] == Compound(pred, (n.args[0],))
               for n in subterms(t))


@pytest.mark.parametrize("case", [1, 2, 3, 4, "rnr"])
def test_coordination_has_two_scopings_whatever_its_length(lex, case):
    # In the paper's account the surface constituents fix the scopings.  In
    # an argument cluster the verb takes the whole coordinated cluster as
    # one constituent, and the two noun phrases inside each conjunct compose
    # in a fixed order; the one free choice is when the subject comes in.
    # Raised over the coordinated verb phrase, it scopes over the whole
    # coordination; composed into the verb first, it is distributed into
    # every conjunct.  In right-node raising the shared object makes the
    # same choice.  So two readings with two scope profiles, for any number
    # of conjuncts: how "and" brackets is no scope choice, since and is
    # associative.
    chart = parse(tokenize(sentence(case)), lex)
    rs = readings_from_chart(chart)
    assert len(rs) == 2
    assert len({scope_profile(r.term) for r in rs}) == 2
    assert sum(r.multiplicity for r in rs) == DERIVATIONS[case]

    functor, pred = ("q-one", "sax") if case == "rnr" else ("q-every", "dlr")
    n = 2 if case == "rnr" else case + 1
    (over,) = [r.term for r in rs if r.term.functor == functor]
    (under,) = [r.term for r in rs if r.term.functor == "and"]
    # Wide: one shared quantifier over an n-conjunct coordination.
    assert len(conjuncts(over.args[2])) == n
    assert not any(holds(c, functor, pred) for c in conjuncts(over.args[2]))
    # Distributed: a copy of it inside each of the n conjuncts.
    assert len(conjuncts(under)) == n
    assert all(holds(c, functor, pred) for c in conjuncts(under))

    counts = count_derivations(chart)
    for item in chart.full_span():
        trees = list(derivations(chart, item))
        assert len(trees) == counts[item.id]
        for tree in trees:
            replay(tree)
