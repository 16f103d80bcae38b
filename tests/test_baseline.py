from itertools import permutations

import pytest

from ccgscope import baseline
from ccgscope.baseline import (
    BaselineError,
    compare,
    enumerate_orderings,
    factorial_count,
    nesting_order,
    parse_skeleton,
    skeleton_leaves,
    uvc_filter,
)
from ccgscope.chart import ResourceError
from ccgscope.cli import _skeleton_table
from ccgscope.lexicon import default_lexicon
from ccgscope.readings import scope_profile
from ccgscope.terms import Compound, free_vars, parse_term

SK_COMPLEX_SUBJ = ("saw(q?(two, R, and(rep(R), of(R, q?(three, C, comp(C))))),"
                   " q?(most, S, samp(S)))")
SK_DITRANS = ("show(q?(every, D, dlr(D)), q?(most, C, cstmr(C)),"
              " q?(three, T, car(T)))")
PP_CHAIN_3 = ("every man in one woman in all representatives of three samples"
              " visited two cars",
              "visited(q?(every, A, and(man(A), in(A, q?(one, B, and(woman(B),"
              " in(B, q?(all, C, and(rep(C), of(C, q?(three, D, samp(D))))))))))),"
              " q?(two, E, car(E)))")
FRENCHMEN = "three frenchmen visited five russians"
SKELETON_CASES = list(_skeleton_table(None).items()) \
    + [(PP_CHAIN_3[0], parse_skeleton(PP_CHAIN_3[1]))]


@pytest.fixture(scope="module")
def lex():
    return default_lexicon()


# --- enumeration ------------------------------------------------------------

def test_leaves_in_preorder():
    sk = parse_skeleton(SK_COMPLEX_SUBJ)
    assert [leaf.det for leaf in skeleton_leaves(sk)] == ["two", "three", "most"]


def test_enumerates_factorially_many_forms():
    assert len(enumerate_orderings(parse_skeleton(SK_COMPLEX_SUBJ))) == 6
    assert len(enumerate_orderings(parse_skeleton(SK_DITRANS))) == 6
    four = parse_skeleton("p(q?(a, W, n1(W)), q?(b, X, n2(X)),"
                          " q?(c, Y, n3(Y)), q?(d, Z, n4(Z)))")
    assert len(enumerate_orderings(four)) == 24


def test_too_many_quantifiers_rejected():
    args = ", ".join(f"q?(d{i}, X{i}, n{i}(X{i}))" for i in range(9))
    with pytest.raises(ResourceError):
        enumerate_orderings(parse_skeleton(f"p({args})"))


def test_separated_embedded_quantifier_leaves_variable_free():
    forms = enumerate_orderings(parse_skeleton(SK_COMPLEX_SUBJ))
    survivors = uvc_filter(forms)
    assert len(forms) == 6 and len(survivors) == 5
    open_forms = [f for f in forms if free_vars(f)]
    assert len(open_forms) == 1
    assert open_forms[0] == parse_term(
        "q-two(R, and(rep(R), of(R, C)),"
        " q-most(S, samp(S), q-three(C, comp(C), saw(R, S))))")
    assert nesting_order(open_forms[0]) == ("two", "most", "three")


def test_adjacent_embedded_quantifier_wraps_host_restriction():
    forms = enumerate_orderings(parse_skeleton(SK_COMPLEX_SUBJ))
    wrapped = parse_term(
        "q-two(R, q-three(C, comp(C), and(rep(R), of(R, C))),"
        " q-most(S, samp(S), saw(R, S)))")
    assert wrapped in forms
    assert nesting_order(wrapped) == ("two", "three", "most")


def test_independent_quantifiers_all_survive():
    forms = enumerate_orderings(parse_skeleton(SK_DITRANS))
    assert uvc_filter(forms) == forms
    assert sorted(nesting_order(f) for f in forms) == sorted(
        [("every", "most", "three"), ("every", "three", "most"),
         ("most", "every", "three"), ("most", "three", "every"),
         ("three", "every", "most"), ("three", "most", "every")])


def per_order_forms(sk):
    """The forms with every restriction erased again for each order: the
    loop as it stood before the erasures were hoisted out of it."""
    leaves = skeleton_leaves(sk)
    core = baseline._erase(sk)
    host = baseline._hosts(leaves)

    def q(leaf, restriction, body):
        return Compound("q-" + leaf.det, (leaf.var, restriction, body))

    forms = []
    for order in permutations(leaves):
        restr = {leaf.var: baseline._erase(leaf.restriction) for leaf in order}
        pending = list(order)
        for i in range(len(pending) - 1, 0, -1):
            leaf = pending[i]
            h = host.get(leaf.var)
            if h is not None and pending[i - 1].var == h:
                restr[h] = q(leaf, restr[leaf.var], restr[h])
                del pending[i]
        t = core
        for leaf in reversed(pending):
            t = q(leaf, restr[leaf.var], t)
        forms.append(t)
    return forms


@pytest.mark.parametrize("sk", [sk for _, sk in SKELETON_CASES],
                         ids=[key for key, _ in SKELETON_CASES])
def test_forms_equal_per_order_erasure(sk):
    assert enumerate_orderings(sk) == per_order_forms(sk)


def test_each_restriction_is_erased_once(monkeypatch):
    erase, depth, calls = baseline._erase, [0], []

    def counted(t):
        # _erase recurses through the module name: count outermost calls.
        if not depth[0]:
            calls.append(t)
        depth[0] += 1
        try:
            return erase(t)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(baseline, "_erase", counted)
    sk = parse_skeleton(PP_CHAIN_3[1])
    assert len(enumerate_orderings(sk)) == 120
    assert len(calls) == len(skeleton_leaves(sk)) + 1


def test_uvc_filter_idempotent_subset():
    forms = enumerate_orderings(parse_skeleton(SK_COMPLEX_SUBJ))
    once = uvc_filter(forms)
    assert set(once) <= set(forms)
    assert uvc_filter(once) == once
    assert uvc_filter([]) == []


# --- skeleton validation ------------------------------------------------------

def test_duplicate_leaf_variable_rejected():
    with pytest.raises(BaselineError):
        parse_skeleton("p(q?(a, X, n1(X)), q?(b, X, n2(X)))")


def test_malformed_leaf_rejected():
    with pytest.raises(BaselineError):
        parse_skeleton("p(q?(a, X))")
    with pytest.raises(BaselineError):
        parse_skeleton("p(q?(a, john, n1(john)))")


# --- comparison against derived readings ---------------------------------------

def test_complex_subject_has_one_unrealized_order(lex):
    tokens = "two representatives of three companies saw most samples".split()
    report = compare(tokens, parse_skeleton(SK_COMPLEX_SUBJ), lex)
    assert len(report.enumerated) == 6
    assert len(report.survivors) == 5
    assert len(report.ccg) == 4
    assert [nesting_order(f) for f in report.gap] == [("three", "most", "two")]


def test_ditransitive_realizes_every_order(lex):
    tokens = "every dealer shows most customers three cars".split()
    report = compare(tokens, parse_skeleton(SK_DITRANS), lex)
    assert len(report.enumerated) == 6
    assert len(report.survivors) == 6
    assert len(report.ccg) == 6
    assert report.gap == ()


def all_pairs_gap(report):
    """The gap by its definition, one profile per (form, reading) pair."""
    return tuple(f for f in report.survivors
                 if not any(scope_profile(r.term) <= scope_profile(f)
                            for r in report.ccg))


@pytest.mark.parametrize("sentence, sk", SKELETON_CASES,
                         ids=[key for key, _ in SKELETON_CASES])
def test_gap_equals_all_pairs_definition(lex, sentence, sk):
    report = compare(sentence.split(), sk, lex)
    assert report.gap == all_pairs_gap(report)


def test_one_profile_per_form_and_reading(lex, monkeypatch):
    calls = []

    def counted(t):
        calls.append(t)
        return scope_profile(t)

    monkeypatch.setattr(baseline, "scope_profile", counted)
    tokens = "two representatives of three companies saw most samples".split()
    report = compare(tokens, parse_skeleton(SK_COMPLEX_SUBJ), lex)
    assert report.gap  # a gap form is tried against every reading
    assert len(calls) == len(report.survivors) + len(report.ccg)


def test_skeleton_of_another_sentence_rejected(lex):
    sk = parse_skeleton("visited(q?(every, F, frenchman(F)), q?(two, R, russian(R)))")
    with pytest.raises(BaselineError, match=r"\{every, two\}.*\{five, three\}"):
        compare(FRENCHMEN.split(), sk, lex)


# --- factorial oracle -----------------------------------------------------------

def test_factorial_count_over_argument_slots():
    assert factorial_count(parse_skeleton(
        "visited(q?(three, F, frenchman(F)), q?(five, R, russian(R)))")) == 2
    assert factorial_count(parse_skeleton(SK_COMPLEX_SUBJ)) == 4
    assert factorial_count(parse_skeleton(SK_DITRANS)) == 6
    assert factorial_count(parse_skeleton(
        "think(up(danced(q?(every, M, man(M)), q?(two, W, woman(W)))),"
        " q?(most, B, boy(B)))")) == 4
    assert factorial_count(parse_skeleton(
        "think(up(danced(q?(every, M, man(M)), q?(two, W, woman(W)))), john)")) == 2
    assert factorial_count(parse_skeleton(
        "think(up(danced(bill, q?(two, W, woman(W)))), q?(most, B, boy(B)))")) == 2
