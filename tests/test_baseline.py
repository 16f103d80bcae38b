import math
import random
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
from ccgscope.cli import _skeleton_table, tokenize
from ccgscope.lexicon import default_lexicon
from ccgscope.readings import occurrences, scope_profile
from ccgscope.terms import Atom, Compound, Lam, Var, free_vars, parse_term

from helpers import embedding, pp_chain

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


FAMILY_CASES = [(f"pp_chain.d{d}.s{seed}", parse_skeleton(pp_chain(d, seed)[1]))
                for d in range(1, 6) for seed in (1, 2, 3)] \
    + [(f"embedding.d{d}.s{seed}", parse_skeleton(embedding(d, seed)[1]))
       for d in range(1, 4) for seed in (1, 2, 3)]


@pytest.fixture(scope="module")
def lex():
    return default_lexicon()


def count_builds(monkeypatch):
    """The orders, as leaf-index tuples, whose forms Orderings builds from
    now on."""
    built, form = [], baseline.Orderings._form

    def counted(self, order):
        built.append(order)
        return form(self, order)

    monkeypatch.setattr(baseline.Orderings, "_form", counted)
    return built


def permute_and_filter(sk):
    """The traditional method: every order's form, then the closed ones."""
    return [f for f in enumerate_orderings(sk) if not free_vars(f)]


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


def test_too_many_quantifiers_rejected(monkeypatch):
    # Nine independent quantifiers: all 9! orders are closed, more than
    # MAX_SURVIVORS = 8!.  compare refuses them before it builds a form,
    # and before it parses the sentence.
    built = count_builds(monkeypatch)
    args = ", ".join(f"q?(d{i}, X{i}, n{i}(X{i}))" for i in range(9))
    with pytest.raises(ResourceError):
        compare(FRENCHMEN.split(), parse_skeleton(f"p({args})"))
    assert built == []


def test_searches_past_the_budget_rejected(monkeypatch):
    # A and B each name the other's variable in their restriction, so no
    # order binds both.  The search learns that only after trying orders of
    # the other ten quantifiers, and stops at 12 * MAX_SURVIVORS tries.
    built = count_builds(monkeypatch)
    args = ", ".join(["q?(a, A, and(na(A), r(B)))", "q?(b, B, and(nb(B), r(A)))"]
                     + [f"q?(d{i}, X{i}, n{i}(X{i}))" for i in range(10)])
    with pytest.raises(ResourceError, match="steps"):
        list(enumerate_orderings(parse_skeleton(f"p({args})")).closed())
    # 21! orders do not fit len().
    args = ", ".join(f"q?(d{i}, X{i}, n{i}(X{i}))" for i in range(21))
    with pytest.raises(ResourceError, match="count"):
        enumerate_orderings(parse_skeleton(f"p({args})"))
    assert built == []


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
    forms = list(enumerate_orderings(parse_skeleton(SK_DITRANS)))
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
    assert list(enumerate_orderings(sk)) == per_order_forms(sk)


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


# --- generating the closed orders -------------------------------------------

@pytest.mark.parametrize("sk", [sk for _, sk in SKELETON_CASES + FAMILY_CASES],
                         ids=[key for key, _ in SKELETON_CASES + FAMILY_CASES])
def test_closed_orders_equal_permute_and_filter(sk):
    assert list(enumerate_orderings(sk).closed()) == permute_and_filter(sk)


def random_skeleton(rng, n):
    """A skeleton of n quantifiers, each leaf's restriction hosting a random
    set of later leaves.  Some restrictions or the core also name another
    leaf's variable (as in "every man with a dog that bit him"), bind one
    under a lambda, or name a variable no leaf binds."""
    xs = [Var(f"X{i}") for i in range(n)]
    host = [None] + [rng.choice([None] + list(range(i))) for i in range(1, n)]

    def conj(parts):
        t = parts[0]
        for part in parts[1:]:
            t = Compound("and", (t, part))
        return t

    def extra(parts):
        roll = rng.random()
        if roll < 0.3:
            parts.append(Compound("ref", (rng.choice(xs),)))
        elif roll < 0.38:
            x = rng.choice(xs)
            parts.append(Lam(x, Compound("lam", (x,))))
        elif roll < 0.4:
            parts.append(Compound("ref", (Var("Z"),)))
        return parts

    def leaf(i):
        parts = [Compound(f"n{i}", (xs[i],))]
        parts += [Compound(f"p{j}", (xs[i], leaf(j))) for j in range(n) if host[j] == i]
        return Compound(baseline.MARK, (Atom(f"d{i}"), xs[i], conj(extra(parts))))

    return Compound("p", tuple(extra([leaf(i) for i in range(n) if host[i] is None])))


def test_closed_orders_on_random_skeletons():
    crowded = 0  # skeletons with a host of two or more guests
    for seed in range(300):
        rng = random.Random(seed)
        # Every 20th has 7 quantifiers: 5,040 forms for the oracle to build.
        sk = random_skeleton(rng, 7 if seed % 20 == 0 else rng.randint(1, 6))
        hosts = list(baseline._hosts(skeleton_leaves(sk)).values())
        crowded += any(hosts.count(h) > 1 for h in hosts)
        assert list(enumerate_orderings(sk).closed()) == permute_and_filter(sk), seed
    assert crowded > 50


@pytest.mark.parametrize("depth", range(1, 8))
def test_pp_chain_survivor_count_law(depth):
    # A depth-d chain has d + 1 noun phrases, each hosting the next, and an
    # object: d + 2 quantifiers.  A guest binds its variable only before its
    # host or right after it.  Each of the d host links folds (guest right
    # after host) or not (guest's block before host's), so the blocks come
    # in a forced order: 2^d orders of the chain.  The object goes into any
    # of the d + 2 gaps except the f inside folded pairs.
    law = sum(math.comb(depth, f) * (depth + 2 - f) for f in range(depth + 1))
    assert law == (depth + 4) * 2 ** (depth - 1)
    for seed in (1, 2, 3):
        forms = enumerate_orderings(parse_skeleton(pp_chain(depth, seed)[1]))
        assert len(forms) == math.factorial(depth + 2)
        assert len(list(forms.closed())) == law


@pytest.mark.parametrize("depth", range(1, 4))
def test_every_embedding_order_is_closed(depth):
    # No quantifier of an embedding sits in another's restriction.
    for seed in (1, 2, 3):
        forms = enumerate_orderings(parse_skeleton(embedding(depth, seed)[1]))
        assert len(list(forms.closed())) == len(forms) == math.factorial(depth + 2)


def test_compare_builds_one_form_per_closed_order(lex, monkeypatch):
    cases = SKELETON_CASES + [(sentence, parse_skeleton(sk)) for sentence, sk
                              in (pp_chain(d, 1) for d in range(1, 6))]
    built = count_builds(monkeypatch)
    for sentence, sk in cases:
        closed = len(permute_and_filter(sk))
        built.clear()
        report = compare(tokenize(sentence), sk, lex)
        assert len(report.survivors) == closed
        # The closed orders, each once, then the first order for the
        # label check.
        n = len(skeleton_leaves(sk))
        assert len(set(built[:-1])) == len(built) - 1 == closed, sentence
        assert built[-1] == tuple(range(n))


def test_depth_seven_pp_chain_compares(lex):
    # 9 quantifiers: more than the 8 compare used to accept.
    sentence, sk = pp_chain(7, 1)
    report = compare(tokenize(sentence), parse_skeleton(sk), lex)
    assert len(report.enumerated) == math.factorial(9)
    assert len(report.survivors) == (7 + 4) * 2 ** 6
    profiles = [scope_profile(r.term) for r in report.ccg]
    assert report.gap == tuple(f for f, fp in zip(report.survivors,
                                                  map(scope_profile, report.survivors))
                               if not any(p <= fp for p in profiles))


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
    # One occurrences walk per survivor and per reading, plus one for the
    # form the label check reads; the label check and the profiles of the
    # readings share theirs.
    calls = []

    def counted(t):
        calls.append(t)
        return occurrences(t)

    monkeypatch.setattr(baseline, "occurrences", counted)
    tokens = "two representatives of three companies saw most samples".split()
    report = compare(tokens, parse_skeleton(SK_COMPLEX_SUBJ), lex)
    assert report.gap  # a gap form is tried against every reading
    assert len(calls) == len(report.survivors) + len(report.ccg) + 1


def test_skeleton_of_another_sentence_rejected(lex):
    sk = parse_skeleton("visited(q?(every, F, frenchman(F)), q?(two, R, russian(R)))")
    with pytest.raises(BaselineError, match=r"\{every, two\}.*\{five, three\}"):
        compare(FRENCHMEN.split(), sk, lex)


def test_skeleton_with_an_extra_quantifier_of_a_known_label_rejected(lex):
    # Labels are compared as multisets: the sentence has two every-man
    # quantifiers, the skeleton three.
    sk = parse_skeleton("saw(q?(every, X, man(X)),"
                        " q?(every, Y, and(man(Y), of(Y, q?(every, Z, man(Z))))))")
    with pytest.raises(BaselineError) as err:
        compare("every man saw every man".split(), sk, lex)
    assert str(err.value) == ("skeleton quantifiers {every-man, every-man, every-man}"
                              " do not match the sentence's {every-man, every-man}")
    two = parse_skeleton("saw(q?(every, X, man(X)), q?(every, Y, man(Y)))")
    assert len(compare("every man saw every man".split(), two, lex).ccg) == 2


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
