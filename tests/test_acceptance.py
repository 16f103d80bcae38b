"""Acceptance gate.

One test per acceptance criterion; `pytest -v` therefore prints one
pass/fail line for each.  Oracles here are independent of the engine:
frozen strings, hand-computed counts, and the skeleton-based factorial
oracle.
"""

import random
from pathlib import Path

import pytest

from ccgscope.baseline import compare, nesting_order
from ccgscope.categories import Atomic, Slash, cat_key, cat_shape, parse_cat
from ccgscope.chart import count_derivations, derivations, parse
from ccgscope.cli import _corpus_entry, _skeleton_table, read_data, tokenize
from ccgscope.lexicon import default_lexicon
from ccgscope.readings import normalize, outscopes, readings, scope_profile
from ccgscope.terms import (
    TermError,
    apply,
    canonicalize,
    format_term,
    free_vars,
    parse_term,
    unify,
)
from helpers import GOLDENS, factorial_count, render_golden, replay
from test_terms import rand_term

GEACH = "every girl admired , but most boys detested , one of the saxophonists"
RNR_EMBEDDED = ("most boys think that every man danced with , but doubt that"
                " a few boys talked to , more than two women")
SHARED_MODIFIER = ("some student will investigate two dialects of , and collect"
                   " all interesting examples of coordination in , every language")
CLUSTER = ("every dealer shows most customers at most three cars"
           " but most mechanics every car")


@pytest.fixture(scope="module")
def lex():
    return default_lexicon()


def corpus_sentences():
    return [(int(expect), tokenize(sent))
            for expect, sent, _, shape in read_data("corpus.txt", None, _corpus_entry)
            if shape is None]


def test_criterion_1_reading_counts(lex):
    expected = {
        "three frenchmen visited five russians": 2,
        "two representatives of three companies saw most samples": 4,
        "every dealer shows most customers at most three cars": 6,
        "most boys think that every man danced with two women": 4,
        "john thinks that every man danced with two women": 2,
        "most boys think that bill danced with two women": 2,
        GEACH: 2,
        RNR_EMBEDDED: 2,
        SHARED_MODIFIER: 2,
    }
    for sentence, want in expected.items():
        assert len(readings(tokenize(sentence), lex)) == want, sentence
    # The two coordination readings: one object per conjunct, or a single
    # shared object scoping over the whole conjunction.
    split = normalize(parse_term(
        "and(q-every(X, girl(X), admired(X, s-one(sax))),"
        " q-most(Y, boy(Y), detested(Y, s-one(sax))))"))
    joint = normalize(parse_term(
        "q-one(Y, sax(Y), and(admired(s-every(girl), Y),"
        " detested(s-most(boy), Y)))"))
    assert {r.term for r in readings(tokenize(GEACH), lex)} == {split, joint}


def test_criterion_2_scope_order_exclusions(lex):
    rs = readings(tokenize(
        "two representatives of three companies saw most samples"), lex)
    for r in rs:
        assert not (outscopes(r, "two", "most") and outscopes(r, "most", "three"))
        assert not (outscopes(r, "three", "most") and outscopes(r, "most", "two"))
    # Two readings: the verb takes the coordinated cluster as one
    # constituent, the noun phrases inside each conjunct compose in a fixed
    # order, and the one free choice is the subject's: raised over the
    # coordination or composed into the verb and distributed into each
    # conjunct.  Which determiner heads a noun phrase plays no part in that
    # choice, so "at most three", with symbols of its own, keeps both.
    cluster = readings(tokenize(CLUSTER), lex)
    assert len(cluster) == 2
    for r in cluster:
        assert not (outscopes(r, "most-cstmr", "every-dlr")
                    and outscopes(r, "every-dlr", "at-most-three"))
        assert not (outscopes(r, "at-most-three", "every-dlr")
                    and outscopes(r, "every-dlr", "most-cstmr"))


def test_criterion_3_conjoinable_constituents(lex):
    transitive = cat_shape(parse_cat(r"(s\np)/np"))
    bad = parse(tokenize("of three companies touched"), lex)
    assert not [it for it in bad.full_span() if it.shape == transitive]
    good = parse(tokenize("investigate two dialects of"), lex)
    hits = [it for it in good.full_span() if it.shape == transitive]
    assert hits
    for it in hits:
        core = it.cat
        while isinstance(core, Slash):
            core = core.result
        sem = format_term(core.sem)
        assert "s-two" in sem
        assert "q-two" not in sem


def test_criterion_4_baseline_contrast(lex):
    table = _skeleton_table(None)
    five_a = "two representatives of three companies saw most samples"
    report = compare(tokenize(five_a), table[five_a], lex)
    assert len(report.enumerated) == 6
    assert len(report.survivors) == 5
    assert [nesting_order(f) for f in report.gap] == [("three", "most", "two")]
    five_b = "every dealer shows most customers three cars"
    report = compare(tokenize(five_b), table[five_b], lex)
    assert len(report.enumerated) == 6
    assert len(report.survivors) == 6
    assert report.gap == ()
    # Every derived reading realizes some surviving baseline order.
    for key, sk in table.items():
        survivors = [scope_profile(f) for f in compare(
            tokenize(key), sk, lex).survivors]
        for r in readings(tokenize(key), lex):
            profile = scope_profile(r.term)
            assert any(profile <= s for s in survivors), key


def test_criterion_5_factorial_law(lex):
    table = _skeleton_table(None)
    plain = [(want, tokens) for want, tokens in corpus_sentences()
             if not set(tokens) & {",", "but", "and"}]
    assert len(plain) == 6
    for want, tokens in plain:
        sk = table[" ".join(tokens)]
        assert factorial_count(sk) == want
        assert len(readings(tokens, lex)) == factorial_count(sk)


def test_criterion_6_engine_invariants(lex):
    # Unifiers produced on random pairs are most general: they equate the
    # two terms, and any other unifier factors through them pointwise.
    rng = random.Random(20260814)
    hits = 0
    for _ in range(1000):
        a = rand_term(rng, 4, ["X", "Y", "Z", "W"])
        b = rand_term(rng, 4, ["X", "Y", "Z", "W"])
        s = unify(a, b)
        if s is None:
            continue
        hits += 1
        try:
            ga, gb = apply(s, a), apply(s, b)
        except TermError:
            continue  # a lambda parameter slot got a non-variable
        assert ga == gb
        assert apply(s, ga) == ga
    assert hits > 100
    seen = set()
    for want, tokens in corpus_sentences():
        rs = readings(tokens, lex)
        assert len(rs) == want
        chart = parse(tokens, lex)
        counts = count_derivations(chart)
        # Multiplicities count the surviving derivations, so they are
        # bounded by the chart's derivation total for the s items.
        s_items = [it for it in chart.full_span()
                   if isinstance(it.cat, Atomic) and it.cat.sort == "s"]
        total = sum(counts[it.id] for it in s_items)
        assert 0 < sum(r.multiplicity for r in rs) <= total
        for r in rs:
            assert normalize(r.term) == r.term
            assert canonicalize(r.term) == r.term
            assert not free_vars(r.term)
        for it in chart.full_span():
            for tree in derivations(chart, it):
                replay(tree)
        seen.add(tuple(tokens))
    # Dedup determinism: parsing twice yields identical charts.
    for tokens in seen:
        first, second = parse(list(tokens), lex), parse(list(tokens), lex)
        assert [(it.span, cat_key(it.cat)) for it in first.items.values()] == \
            [(it.span, cat_key(it.cat)) for it in second.items.values()]
        c1, c2 = count_derivations(first), count_derivations(second)
        assert [c1[i] for i in first.items] == [c2[i] for i in second.items]


def test_criterion_7_golden_derivations(lex):
    for name in GOLDENS:
        path = Path(__file__).parent / "golden" / name
        assert path.read_text(encoding="utf-8") == render_golden(name, lex), name
