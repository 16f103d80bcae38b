import itertools
import random

import pytest

from ccgscope.categories import atomics
from ccgscope.chart import parse
from ccgscope.lexicon import default_lexicon
from ccgscope.readings import (
    NoParseError,
    ReadingError,
    StructuralError,
    _steps,
    _walk,
    normalize,
    occurrences,
    outscopes,
    readings,
    scope_profile,
)
from ccgscope.terms import (
    canonicalize,
    children,
    format_term,
    free_vars,
    parse_term,
    subterms,
)

from test_acceptance import corpus_sentences
from test_terms import rand_lf, rand_term


def norm(text):
    return format_term(normalize(parse_term(text)))


def canon(text):
    return format_term(canonicalize(parse_term(text)))


@pytest.fixture(scope="module")
def lex():
    return default_lexicon()


# --- the walk ---------------------------------------------------------------

def test_walk_yields_each_node_with_its_path_and_ancestor_chain(lex):
    def child(node, step):
        return children(node)[list(_steps(node)).index(step)]

    rng = random.Random(20261019)
    sample = [rand_term(rng, 4, ["X", "Y", "Z"]) for _ in range(300)]
    sample += [rand_lf(rng, 5) for _ in range(300)]
    sample += [at.sem for _, tokens in corpus_sentences()
               for it in parse(tokens, lex).full_span() for at in atomics(it.cat)]
    for t in sample:
        walked = list(_walk(t))
        assert [id(node) for _, node, _ in walked] == [id(n) for n in subterms(t)]
        for path, node, chain in walked:
            assert tuple(step for _, step in chain) == path
            assert not chain or chain[0][0] is t
            hops = [child(a, step) for a, step in chain]
            assert all(h is a for h, (a, _) in zip(hops, chain[1:]))
            assert (hops[-1] if hops else t) is node


# --- promotion of set forms -------------------------------------------------

def test_promotes_set_form_in_place():
    got = norm("q-every(X, girl(X), admired(X, s-one(sax)))")
    assert got == "q-every(v1, girl(v1), q-one(v2, sax(v2), admired(v1, v2)))"


def test_joint_promotion_across_conjunction():
    got = norm("q-one(Y, sax(Y), and(admired(s-every(girl), Y),"
               " detested(s-most(boy), Y)))")
    assert got == ("q-one(v1, sax(v1), and(q-every(v2, girl(v2), admired(v2, v1)),"
                   " q-most(v3, boy(v3), detested(v3, v1))))")


def test_identical_set_forms_outside_a_coordination_stay_two_quantifiers():
    # Two noun phrases that happen to read alike are two quantifiers, not
    # one shared argument: only copies parted by an and/2 promote jointly.
    got = norm("admired(s-every(girl), s-every(girl))")
    assert got == "q-every(v1, girl(v1), q-every(v2, girl(v2), admired(v1, v2)))"


def test_no_set_forms_is_canonicalize_only():
    src = "q-every(X, man(X), walks(X))"
    assert norm(src) == canon(src)


def test_blocked_joint_splits_per_conjunct():
    # No shared binder below the conjunction: each copy scopes in its own
    # conjunct instead of wrapping the and-node.
    got = norm("and(q-every(X, girl(X), admired(X, s-one(sax))),"
               " q-most(Y, boy(Y), detested(Y, s-one(sax))))")
    assert got == ("and(q-every(v1, girl(v1), q-one(v2, sax(v2), admired(v1, v2))),"
                   " q-most(v3, boy(v3), q-one(v4, sax(v4), detested(v3, v4))))")


def test_opaque_residue_survives():
    src = ("think(up(q-every(M, man(M), q-two(W, woman(W), danced(M, W)))),"
           " s-most(boy))")
    assert norm(src) == canon(src)


def test_dependent_restriction_lands_low():
    got = norm("q-every(L, language(L),"
               " investigate(ST, s-two(Y^and(dialect(Y), of(Y, L)))))")
    assert got == ("q-every(v1, language(v1), q-two(v2, and(dialect(v2),"
                   " of(v2, v1)), investigate(v3, v2)))")


def test_dependent_restriction_floats_high():
    # The set form depends on the outer binder only, so it rises past the
    # intervening quantifier.
    got = norm("q-every(X, man(X), q-most(Y, boy(Y), visited(Y, s-two(W^of(W, X)))))")
    assert got == ("q-every(v1, man(v1), q-two(v2, of(v2, v1),"
                   " q-most(v3, boy(v3), visited(v3, v2))))")


def test_ditransitive_order_flips_around_binder():
    got = norm("q-every(X, dlr(X), show(s-most(cstmr), X, s-three(car)))")
    assert got == ("q-every(v1, dlr(v1), q-three(v2, car(v2),"
                   " q-most(v3, cstmr(v3), show(v3, v1, v2))))")


def test_joint_collapse_drops_duplicate_inner_forms():
    # The two copies of the shared object each embed a further set form;
    # only the surviving copy's embedded form may scope.
    got = normalize(parse_term(
        "q-some(X, student(X), and("
        "investigate(X, s-two(Y^and(dialect(Y), of(Y, s-every(language))))),"
        " collect(X, s-two(Y^and(dialect(Y), of(Y, s-every(language)))))))"))
    assert format_term(got) == (
        "q-some(v1, student(v1), q-two(v2, and(dialect(v2),"
        " q-every(v3, language(v3), of(v2, v3))),"
        " and(investigate(v1, v2), collect(v1, v2))))")
    assert not free_vars(got)


def test_normalize_idempotent():
    for src in [
        "q-every(X, girl(X), admired(X, s-one(sax)))",
        "q-every(X, dlr(X), show(s-most(cstmr), X, s-three(car)))",
        "think(up(q-two(W, woman(W), danced(s-every(man), W))), s-most(boy))",
    ]:
        once = normalize(parse_term(src))
        assert normalize(once) == once


def test_non_variable_binder_rejected():
    with pytest.raises(StructuralError):
        normalize(parse_term("q-every(john, man(john), walks(john))"))


# --- readings over whole sentences -------------------------------------------

def test_plain_transitive_two_readings(lex):
    rs = readings("three frenchmen visited five russians".split(), lex)
    assert len(rs) == 2
    assert sum(r.multiplicity for r in rs) == 15
    terms = {format_term(r.term) for r in rs}
    assert terms == {
        "q-three(v1, frenchman(v1), q-five(v2, russian(v2), visited(v1, v2)))",
        "q-five(v1, russian(v1), q-three(v2, frenchman(v2), visited(v2, v1)))",
    }


def test_identical_noun_phrases_keep_both_scopings(lex):
    # Each noun phrase brings its own quantifier, so a transitive verb with
    # two quantified arguments has the same two scopings as "three
    # frenchmen visited five russians", even when the two read alike.
    rs = readings("every girl admired every girl".split(), lex)
    assert len(rs) == 2
    assert {format_term(r.term) for r in rs} == {
        "q-every(v1, girl(v1), q-every(v2, girl(v2), admired(v1, v2)))",
        "q-every(v1, girl(v1), q-every(v2, girl(v2), admired(v2, v1)))",
    }
    assert sum(r.multiplicity for r in rs) == 15


def test_embedded_clause_filter_keeps_opaque_and_wide(lex):
    rs = readings("john thinks that every man danced with two women".split(), lex)
    assert len(rs) == 2
    orders = {tuple(sorted(scope_profile(r.term))) for r in rs}
    assert orders == {(("every", "two"),), (("two", "every"),)}


def test_readings_are_closed_and_canonical(lex):
    for r in readings("every dealer shows most customers three cars".split(), lex):
        assert not free_vars(r.term)
        assert canonicalize(r.term) == r.term
        assert normalize(r.term) == r.term


def test_readings_deterministic(lex):
    tokens = "two representatives of three companies saw most samples".split()
    first = readings(tokens, lex)
    second = readings(tokens, lex)
    assert [(format_term(r.term), r.multiplicity) for r in first] == \
        [(format_term(r.term), r.multiplicity) for r in second]


def test_no_parse_raises(lex):
    with pytest.raises(NoParseError):
        readings("of three companies touched".split(), lex)


# --- scope-order queries ------------------------------------------------------

def test_outscopes_on_inverted_reading(lex):
    rs = readings("every girl admired one saxophonist".split(), lex)
    assert len(rs) == 2
    inverted = [r for r in rs if outscopes(r, "one", "every")]
    assert len(inverted) == 1
    assert not outscopes(inverted[0], "every", "one")
    assert not outscopes(inverted[0], "one", "one")


def test_scope_profile_orders_both_readings(lex):
    rs = readings("every girl admired one saxophonist".split(), lex)
    profiles = {scope_profile(r.term) for r in rs}
    assert profiles == {frozenset({("every", "one")}),
                        frozenset({("one", "every")})}


def test_repeated_determiner_gets_noun_qualified_label():
    t = parse_term("q-every(X, dlr(X), q-every(Y, car(Y), show(X, Y)))")
    assert scope_profile(t) == frozenset({("every-dlr", "every-car")})
    assert outscopes(t, "every-dlr", "every-car")
    assert not outscopes(t, "every-car", "every-dlr")


def test_unknown_determiner_name_raises():
    t = parse_term("q-every(X, dlr(X), sleeps(X))")
    with pytest.raises(ReadingError):
        outscopes(t, "every", "most")


@pytest.mark.parametrize("outer", ["every", "most"])
def test_unknown_inner_name_raises_whatever_the_outer_name_holds(outer):
    # "most" names only a residual set form, which scopes over nothing.
    t = parse_term("think(up(q-every(M, man(M), danced(M, a))), s-most(boy))")
    with pytest.raises(ReadingError):
        outscopes(t, outer, "nosuch")


def test_cluster_conjunct_orders_scope_independently(lex):
    tokens = ("every dealer shows most customers at most three cars"
              " but most mechanics every car").split()
    rs = readings(tokens, lex)
    assert len(rs) == 2
    for r in rs:
        assert not (outscopes(r, "most-cstmr", "every-dlr")
                    and outscopes(r, "every-dlr", "three"))


def test_outscopes_agrees_with_scope_profile(lex):
    pairs = inside = 0
    for _, tokens in corpus_sentences():
        for r in readings(tokens, lex):
            profile = scope_profile(r.term)
            labels = {o.label for o in occurrences(r.term)}
            for a, b in itertools.product(sorted(labels), repeat=2):
                assert outscopes(r, a, b) == ((a, b) in profile), (tokens, a, b)
                pairs += 1
                inside += (a, b) in profile
    assert pairs > 250 and inside > 50
