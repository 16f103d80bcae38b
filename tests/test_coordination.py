"""Coordination packed modulo the associativity of and.

The sentences here are long (up to 28 tokens) and stay out of corpus.txt,
whose every line the CLI benchmark parses.
"""

import pytest

from ccgscope.chart import count_derivations, derivations
from ccgscope.readings import readings_from_chart, scope_profile
from ccgscope.terms import Compound, is_and, is_quant, subterms

from helpers import check_backpointers

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
def test_coordination_has_two_scopings_whatever_its_length(chart_of, case):
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
    chart = chart_of(sentence(case))
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
        assert sum(1 for _ in derivations(chart, item)) == counts[item.id]
    # Every derivation replays: checking each backpointer once from its
    # children's stored categories covers every tree (see
    # check_backpointers), without re-deriving shared subtrees per tree.
    check_backpointers(chart)


SAME_SUBJECTS = "every girl admired , but every girl detested , one saxophonist"


@pytest.mark.xfail(strict=True, reason=(
    "readings promotes two equal set forms that part at an and/2 jointly, as if"
    " they were copies of one distributed noun phrase (4 readings); telling"
    " them apart needs token identity for set forms, ROADMAP direction 1"))
def test_two_alike_subjects_under_right_node_raising_give_two_scopings(chart_of):
    # The account, not the engine, fixes the count.  This sentence has the
    # surface constituents of RNR: two conjuncts, each a subject composed
    # with its verb ([every girl admired], [every girl detested]), and one
    # shared object, [one saxophonist], that the coordinated constituent
    # takes as its argument.  Each subject is a quantificational noun
    # phrase of its own conjunct, so it scopes inside that conjunct and
    # has no choice to make.  The one choice is the shared object's: taken
    # as one referential individual it scopes over the whole coordination
    # (one > every, in both conjuncts), and taken as a quantifier it is
    # distributed into each conjunct, under that conjunct's subject
    # (every > one, twice).  Nothing in that argument reads the subjects'
    # words, so it gives the 2 readings that "... most boys detested ..."
    # gives.  Two noun phrases spelled alike are still two tokens: no
    # reading may have one every-girl quantifier bind the subjects of both
    # conjuncts, which would say that each girl both admired and detested.
    rs = readings_from_chart(chart_of(SAME_SUBJECTS))
    assert len(rs) == 2
    assert len({scope_profile(r.term) for r in rs}) == 2
    for r in rs:
        for n in subterms(r.term):
            if is_quant(n) and n.functor == "q-every":
                verbs = {m.functor for m in subterms(n.args[2])
                         if isinstance(m, Compound) and n.args[0] in m.args}
                assert not {"admired", "detested"} <= verbs, r.term
