import itertools
import random
import warnings

import pytest

from ccgscope.categories import Atomic, atomics, cat_text
from ccgscope.chart import count_derivations, parse
from ccgscope.cli import _corpus_entry, read_data, tokenize
from ccgscope.lexicon import data_text, default_lexicon, load_lexicon
from ccgscope import readings as readings_module
from ccgscope.readings import (
    NoParseError,
    ReadingError,
    StructuralError,
    _assign_sites,
    _facts,
    _intensional_violation,
    _summarize,
    _walk,
    normalize,
    occurrences,
    outscopes,
    readings,
    readings_from_chart,
    scope_profile,
)
from ccgscope.terms import (
    Atom,
    Compound,
    Lam,
    Up,
    Var,
    canonicalize,
    format_term,
    free_vars,
    is_quant,
    is_set_form,
    parse_term,
    subterms,
)

from helpers import (
    embedding,
    oracle_free_vars,
    oracle_intensional_violation,
    oracle_normalize,
    oracle_occurrences,
    pp_chain,
    whole_form_assign_sites,
    whole_form_intensional_violation,
)
from test_acceptance import corpus_sentences
from test_categories import random_unifiers
from test_chart import CLOSURE_CASES, PP_CHAIN_4
from test_coordination import sentence as coordination_sentence
from test_terms import rand_lf, rand_scoped, rand_term


def norm(text):
    return format_term(normalize(parse_term(text)))


def canon(text):
    return format_term(canonicalize(parse_term(text)))


@pytest.fixture(scope="module")
def lex():
    return default_lexicon()


# --- the walk ---------------------------------------------------------------

def test_walk_yields_each_node_with_its_path_and_ancestor_chain(lex):
    # A compound's children are stepped to by argument index, the others'
    # by name; any other pairing is a KeyError.
    named = {(Lam, "param"): lambda n: n.param, (Lam, "lam"): lambda n: n.body,
             (Up, "up"): lambda n: n.body}

    def child(node, step):
        if isinstance(node, Compound) and isinstance(step, int):
            return node.args[step]
        return named[type(node), step](node)

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


IDEMPOTENCE_CASES = \
    [pp_chain(depth, seed)[0] for depth in range(1, 5) for seed in (1, 2, 3)] \
    + [embedding(depth, seed)[0] for depth in range(1, 4) for seed in (1, 2, 3)] \
    + [coordination_sentence(k) for k in (1, 2, 3)]


def test_normalize_idempotent(readings_of):
    for src in [
        "q-every(X, girl(X), admired(X, s-one(sax)))",
        "q-every(X, dlr(X), show(s-most(cstmr), X, s-three(car)))",
        "think(up(q-two(W, woman(W), danced(s-every(man), W))), s-most(boy))",
    ]:
        once = normalize(parse_term(src))
        assert normalize(once) == once
    # Every reading of the seeded families is a fixed point: PP chains of
    # depths 1-4 (4 + 8 + 18 + 46 readings per seed), embeddings of
    # depths 1-3 (4 each) and clusters of 2-4 conjuncts (2 each).
    checked = 0
    for sentence in IDEMPOTENCE_CASES:
        for r in readings_of(sentence):
            assert normalize(r.term) == r.term, (sentence, format_term(r.term))
            checked += 1
    assert checked == 3 * (4 + 8 + 18 + 46) + 9 * 4 + 3 * 2


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
                    and outscopes(r, "every-dlr", "at-most-three"))


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


@pytest.mark.parametrize("depth", [1, 2, 3, 4])
def test_embedding_law(readings_of, depth):
    # An embedding's readings are 2 x 2 at every depth, argued from the
    # account.  Each embedding verb writes its complement as up(S), and S
    # is the whole semantics of the clause below, so every quantifier of
    # a lower clause, which its wide entry builds as that clause's s
    # semantics, lies inside an up(.); normalize never promotes a set
    # form out of an up(.) either.  So:
    # - the innermost clause's subject and object scope inside its up(.)
    #   in either order, as in a plain transitive sentence: 2;
    # - an intermediate clause's subject is its one noun phrase, inside an
    #   up(.): its set form is promoted at its own predication, right where
    #   its wide entry's quantifier stands, so its two entries give 1;
    # - the matrix subject is inside no up(.) and sits beside one that
    #   holds scope material (the next subject): its wide entry scopes over
    #   the sentence, and its set form stays an s- residue: 2.
    # The choices are independent, so there are 4 readings with 4 scope
    # profiles, 2 of them with the matrix quantifier outermost.
    for seed in (1, 2, 3):
        rs = readings_of(embedding(depth, seed)[0])
        assert len(rs) == 4, seed
        assert len({scope_profile(r.term) for r in rs}) == 4, seed
        assert sum(is_quant(r.term) for r in rs) == 2, seed


def listed_readings(get, sentence):
    """[(printed reading, multiplicity)] of get(sentence), or None when
    the sentence has no parse."""
    try:
        return [(format_term(r.term), r.multiplicity) for r in get(sentence)]
    except NoParseError:
        return None


SHUFFLE_CASES = [sent for _, sent, _, _ in read_data("corpus.txt", None, _corpus_entry)] \
    + [pp_chain(3, 1)[0], embedding(2, 1)[0], coordination_sentence(2)]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_readings_do_not_depend_on_the_order_of_the_lexicon_lines(readings_of, seed):
    # Each line declares one entry or one family, every family expands
    # over the last type set after the whole file is read, and no two
    # entries of a lexeme have variant chart forms, so no line drops
    # another's entry.  Shuffled lines give the same entries in another
    # order, and so the same readings and multiplicities; chart ids and
    # derivation order may differ.
    lines = data_text("fragment.lex").splitlines()
    random.Random(seed).shuffle(lines)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        shuffled = load_lexicon("\n".join(lines))
    assert sorted(f"{e.tag} :: {cat_text(e.cat)}" for e in shuffled.entries) \
        == sorted(f"{e.tag} :: {cat_text(e.cat)}" for e in default_lexicon().entries)

    def reparsed(sentence):
        return readings(tokenize(sentence), shuffled)
    for sentence in SHUFFLE_CASES:
        assert listed_readings(reparsed, sentence) == listed_readings(readings_of, sentence), \
            sentence


# --- the walks agree with their node-by-node oracles --------------------------

AGREEMENT_CASES = [" ".join(tokens) for _, tokens in corpus_sentences()] \
    + [pp_chain(depth, seed)[0] for depth in range(1, 7) for seed in (1, 2, 3)] \
    + [embedding(depth, seed)[0] for depth in range(1, 5) for seed in (1, 2, 3)] \
    + [coordination_sentence(k) for k in (1, 2, 3)]


def test_the_readings_layer_agrees_with_its_node_by_node_oracles(chart_of, readings_of):
    # Readings, multiplicities and their order, against readings_from_chart
    # with the oracle filter and normalizer; the filter's verdict on every
    # full-span form; occurrence lists and free variables of every form
    # and reading.  Each form's oracle verdict is worked out once.
    tallies = {"forms": 0, "violators": 0, "readings": 0, "set forms": 0}
    for sentence in AGREEMENT_CASES:
        chart = chart_of(sentence)
        got = readings_of(sentence)
        counts, groups = count_derivations(chart), {}
        forms = [it for it in chart.full_span()
                 if isinstance(it.cat, Atomic) and it.cat.sort == "s"]
        for item in forms:
            t = item.cat.sem
            violates = oracle_intensional_violation(t)
            assert _intensional_violation(t) == violates, format_term(t)
            if not violates:
                canon = oracle_normalize(t)
                groups[canon] = groups.get(canon, 0) + counts[item.id]
            assert occurrences(t) == oracle_occurrences(t), format_term(t)
            assert free_vars(t) == oracle_free_vars(t), format_term(t)
            tallies["violators"] += violates
            tallies["set forms"] += any(map(is_set_form, subterms(t)))
        want = sorted(groups.items(), key=lambda kv: format_term(kv[0]))
        assert [(r.term, r.multiplicity) for r in got] == want, sentence
        for r in got:
            assert occurrences(r.term) == oracle_occurrences(r.term), format_term(r.term)
            assert free_vars(r.term) == oracle_free_vars(r.term), format_term(r.term)
        tallies["forms"] += len(forms)
        tallies["readings"] += len(got)
    assert tallies["violators"] > 500 and tallies["readings"] > 1000, tallies
    assert tallies["set forms"] > 1000, tallies


# --- the scope summary ---------------------------------------------------------

def oracle_facts(t):
    """(holds an up(.), holds a set form or quantifier, free variables) of
    t, every node of it visited."""
    nodes = list(subterms(t))
    return (any(isinstance(n, Up) for n in nodes),
            any(is_quant(n) or is_set_form(n) for n in nodes),
            frozenset(oracle_free_vars(t)))


def test_summarized_facts_agree_with_their_oracle(chart_of):
    # Every node of random scoped terms and of the full-span forms of a
    # PP chain and an embedding, the forms of a chart sharing one summary.
    rng = random.Random(20261021)
    batches = [[rand_scoped(rng, 5)] for _ in range(1000)]
    for sentence in (PP_CHAIN_4, embedding(3, 1)[0]):
        batches.append([it.cat.sem for it in chart_of(sentence).full_span()
                        if isinstance(it.cat, Atomic) and it.cat.sort == "s"])
    tallies = {"nodes": 0, "up": 0, "scope": 0, "free": 0}
    for batch in batches:
        summary = {}
        for t in batch:
            _summarize(t, summary)
        for t in batch:
            for node in subterms(t):
                facts = oracle_facts(node)
                assert _facts(node, summary) == facts, format_term(node)
                tallies["nodes"] += 1
                tallies["up"] += facts[0]
                tallies["scope"] += facts[1]
                tallies["free"] += bool(facts[2])
    assert tallies["nodes"] > 15000 and min(tallies.values()) > 1000, tallies


SUMMARY_CASES = CLOSURE_CASES + [PP_CHAIN_4] \
    + [embedding(depth, seed)[0] for depth in range(1, 5) for seed in (1, 2, 3)]


@pytest.mark.parametrize("sentence", SUMMARY_CASES)
def test_the_scope_summary_changes_no_reading(chart_of, readings_of, monkeypatch, sentence):
    # Readings, multiplicities and their order, against readings_from_chart
    # with the whole-form filter and site walk, which ignore the summary.
    want = listed_readings(readings_of, sentence)
    monkeypatch.setattr(readings_module, "_intensional_violation",
                        whole_form_intensional_violation)
    monkeypatch.setattr(readings_module, "_assign_sites", whole_form_assign_sites)
    got = listed_readings(lambda s: readings_from_chart(chart_of(s)), sentence)
    assert got == want


def test_the_filter_and_the_site_walk_visit_only_their_material(chart_of, monkeypatch):
    # A PP chain holds no up(.), so the filter walks none of its 124
    # full-span forms.  Of their 4,417 nodes, the site walk visits the
    # 1,905 that are or hold a set form or a quantifier.
    visits, walk = [0], _walk

    def counted(t, descend=None):
        for entry in walk(t, descend):
            visits[0] += 1
            yield entry

    monkeypatch.setattr(readings_module, "_walk", counted)
    forms = [it.cat.sem for it in chart_of(PP_CHAIN_4).full_span()
             if isinstance(it.cat, Atomic) and it.cat.sort == "s"]
    summary, tally = {}, {"forms": len(forms), "nodes": 0, "filter": 0, "sites": 0}
    for t in forms:
        _summarize(t, summary)
        tally["nodes"] += sum(1 for _ in subterms(t))
        visits[0] = 0
        assert not _intensional_violation(t, summary)
        tally["filter"] += visits[0]
        visits[0] = 0
        _assign_sites(t, summary)
        tally["sites"] += visits[0]
    assert tally == {"forms": 124, "nodes": 4417, "filter": 0, "sites": 1905}


READ_BACK_CASES = [" ".join(tokens) for _, tokens in corpus_sentences()] \
    + [pp_chain(depth, seed)[0] for depth in range(1, 6) for seed in (1, 2, 3)] \
    + [embedding(depth, seed)[0] for depth in range(1, 4) for seed in (1, 2, 3)] \
    + [coordination_sentence(k) for k in (1, 2, 3)]


def test_every_printed_reading_reads_back_to_its_term(readings_of):
    # What the JSON lf promises: the printed reading, read back and
    # canonicalized, is the reading.
    read = 0
    for sentence in READ_BACK_CASES:
        for r in readings_of(sentence):
            text = format_term(r.term)
            assert canonicalize(parse_term(text)) == r.term, (sentence, text)
            read += 1
    assert read > 500, read


def test_normalize_agrees_with_its_oracle_on_random_scoped_terms():
    # Quantifiers, set forms, lambdas and up(.) in every arrangement,
    # ill-formed ones included: equal results, or the same StructuralError.
    rng = random.Random(20261019)

    def outcome(fn, t):
        try:
            return fn(t)
        except StructuralError as e:
            return str(e)

    tallies = {"normalized": 0, "refused": 0, "promoted": 0}
    for _ in range(3000):
        t = rand_scoped(rng, 5)
        got = outcome(normalize, t)
        assert got == outcome(oracle_normalize, t), format_term(t)
        assert free_vars(t) == oracle_free_vars(t)
        assert occurrences(t) == oracle_occurrences(t)
        tallies["refused" if isinstance(got, str) else "normalized"] += 1
        tallies["promoted"] += not isinstance(got, str) and got != canonicalize(t)
    assert min(tallies.values()) > 300, tallies


@pytest.mark.parametrize("text, message", [
    ("q-every(john, man(john), walks(john))",
     "quantifier with a non-variable in its variable position"),
    ("walks(s-two(dog), q-every(john, man(john), walks(john)))",
     "quantifier with a non-variable in its variable position"),
    ("think(up(s-every(man)))", "set form directly under an up(.) argument"),
    ("s-every(man)", "set form with no enclosing compound"),
    ("walks(s-every(f(a)))", "unpromotable restriction f(a)"),
    ("walks(s-two(s-every(man)))", "unpromotable restriction _q2"),
    ("f(X^s-a(Y^p(Y, X)))",
     "promotion left variables unbound in q-a(_q1, p(_q1, X), f(X^_q1))"),
])
def test_structural_errors_match_the_oracle(text, message):
    # The quantifier-slot check runs in the site walk, and still comes
    # before any other error.
    for fn in (normalize, oracle_normalize):
        with pytest.raises(StructuralError) as raised:
            fn(parse_term(text))
        assert str(raised.value) == message


def test_free_vars_agrees_with_its_oracle_on_random_unifiers():
    for a, b, s in random_unifiers():
        for t in (a, b, *s.values()):
            assert free_vars(t) == oracle_free_vars(t)


def test_free_vars_and_the_walk_take_any_depth():
    deep = Var("X")
    for i in range(5000):
        deep = Compound("f", (deep, Atom("a"))) if i % 2 else Lam(Var(f"Y{i}"), deep)
    assert free_vars(deep) == (Var("X"),)
    assert sum(1 for _ in _walk(deep)) == 10001  # two nodes a level, and X
