import pytest

from ccgscope import chart as chart_module
from ccgscope.categories import atomics, cat_key, format_cat, canonical_cat, map_sems, parse_cat
from ccgscope.chart import (
    ChartError,
    ResourceError,
    bwd_apply,
    bwd_compose,
    check_backpointers,
    count_derivations,
    derivations,
    fwd_apply,
    fwd_compose,
    parse,
    passes_through,
    pretty,
    replay,
)
from ccgscope.cli import _corpus_entry, read_data, tokenize
from ccgscope.lexicon import UnknownTokenError, default_lexicon, load_lexicon
from ccgscope.readings import NoParseError, _well_formed, readings_from_chart
from ccgscope.terms import Atom, Compound, Lam, TermError, Var, children, is_and, is_set_form, subterms

from helpers import (
    all_pairs_parse,
    embedding,
    item_sequence,
    live_items,
    pp_chain,
    unrecorded,
    well_formed_part,
)
from test_baseline import PP_CHAIN_3
from test_coordination import sentence as coordination_sentence


def key(text):
    return cat_key(parse_cat(text))


def rkey(cat):
    return cat_key(cat)


@pytest.fixture(scope="module")
def lex():
    return default_lexicon()


# --- rule units -----------------------------------------------------------

def test_fwd_apply_basic():
    out = fwd_apply(parse_cat("s:S/np:X"), parse_cat("np:john"))
    assert rkey(out) == key("s:S")
    assert fwd_apply(parse_cat("np:X"), parse_cat("np:Y")) is None


def test_bwd_apply_basic():
    out = bwd_apply(parse_cat("np:john"), parse_cat(r"s:walks(X)\np:X"))
    assert rkey(out) == key("s:walks(john)")
    assert bwd_apply(parse_cat("np:john"), parse_cat("s:S/np:X")) is None


def test_bwd_apply_object_quantifier_step():
    # An object taking scope over an already-built s/np.
    left = parse_cat("s:q-every(X,girl(X),admired(X,Y))/np:Y")
    right = parse_cat(r"s:q-one(Y,sax(Y),S)\(s:S/np:Y)")
    out = bwd_apply(left, right)
    assert rkey(out) == key("s:q-one(Y,sax(Y),q-every(X,girl(X),admired(X,Y)))")


def test_fwd_compose_subject_into_verb():
    left = parse_cat(r"s:q-every(X,girl(X),S)/(s:S\np:X)")
    right = parse_cat(r"(s:admired(X2,Y)\np:X2)/np:Y")
    out = fwd_compose(left, right)
    assert rkey(out) == key("s:q-every(X,girl(X),admired(X,Y))/np:Y")


def test_fwd_compose_noun_modifier_chain():
    left = parse_cat(r"n:N1/(n:N1\n:Y^dialect(Y))")
    right = parse_cat(r"(n:Y^and(N,of(Y,Z))\n:Y^N)/np:Z")
    out = fwd_compose(left, right)
    assert rkey(out) == key("n:Y^and(dialect(Y),of(Y,Z))/np:Z")


def test_fwd_compose_degree_two_into_ditransitive():
    left = parse_cat(r"s:q-every(X,dlr(X),S)/(s:S\np:X)")
    right = parse_cat(r"((s:show(X2,Y,Z)\np:X2)/np:Z)/np:Y")
    out = fwd_compose(left, right)
    assert rkey(out) == key("(s:q-every(X,dlr(X),show(X,Y,Z))/np:Z)/np:Y")


def test_bwd_compose_argument_cluster():
    left = parse_cat(
        r"((s:q-most(V,cstmr(V),A)\np:B)/np:C)\(((s:A\np:B)/np:C)/np:V)")
    right = parse_cat(r"(s:q-three(V2,car(V2),A2)\np:B2)\((s:A2\np:B2)/np:V2)")
    out = bwd_compose(left, right)
    assert rkey(out) == key(
        r"(s:q-three(C,car(C),q-most(V,cstmr(V),A))\np:B)\(((s:A\np:B)/np:C)/np:V)")


def test_rule_fails_when_a_quantifier_would_bind_a_non_variable():
    every = parse_cat(r"s:q-every(X, girl(X), P)/(s:P\np:X)")
    assert fwd_apply(every, parse_cat(r"s:smiled(j)\np:j")) is None
    # Binding the slot to another variable still succeeds.
    out = fwd_apply(every, parse_cat(r"s:smiled(Y)\np:Y"))
    assert rkey(out) == key("s:q-every(Y, girl(Y), smiled(Y))")


def test_application_shaped_pair_is_not_composition():
    left = parse_cat(r"s:S\np:X")
    right = parse_cat(r"(s:S2\np:W)\(s:S\np:X)")
    assert bwd_compose(left, right) is None
    assert rkey(bwd_apply(left, right)) == key(r"s:S2\np:W")


def test_pass_through_license():
    assert passes_through(parse_cat("np:X"))
    assert passes_through(parse_cat(r"s:S\np:X"))
    assert passes_through(parse_cat(r"(s:S\np:X)/np:Y"))
    assert not passes_through(parse_cat("s:S"))
    assert not passes_through(parse_cat("sbar:S"))
    assert not passes_through(parse_cat(r"n:A\n:B"))
    assert not passes_through(parse_cat(r"s:S/(s:A\np:X)"))


def test_license_blocks_composition_into_raised_argument():
    left = parse_cat(r"s:A/(s:B\np:C)")
    right = parse_cat(r"(s:B2\np:C2)/(s:D/(s:E\np:F))")
    assert fwd_compose(left, right) is None


def test_parse_reaches_the_four_rules_through_rules(lex, monkeypatch):
    # perfbench/tracing.py counts rule attempts by wrapping chart.RULES.
    assert [(label, fn.__name__) for label, fn in chart_module.RULES] == [
        (">", "fwd_apply"), ("<", "bwd_apply"),
        (">B", "fwd_compose"), ("<B", "bwd_compose")]
    tokens = tokenize("every dealer shows most customers three cars")
    plain = item_sequence(list(parse(tokens, lex).items.values()))
    attempts = dict.fromkeys((label for label, _ in chart_module.RULES), 0)

    def counted(label, fn):
        def rule(left, right):
            attempts[label] += 1
            return fn(left, right)
        return rule

    monkeypatch.setattr(chart_module, "RULES", tuple(
        (label, counted(label, fn)) for label, fn in chart_module.RULES))
    assert item_sequence(list(parse(tokens, lex).items.values())) == plain
    assert all(count > 0 for count in attempts.values()), attempts


# --- parsing --------------------------------------------------------------

def test_parse_single_name(lex):
    chart = parse(["john"], lex)
    assert [rkey(it.cat) for it in chart.full_span()] == [key("np:num(john,sg)")]


def test_parse_finds_both_scopes(lex):
    chart = parse("every girl admired one saxophonist".split(), lex)
    keys = {rkey(it.cat) for it in chart.full_span()}
    assert key("s:q-one(Y,sax(Y),q-every(X,girl(X),admired(X,Y)))") in keys
    assert key("s:q-every(X,girl(X),admired(X,s-one(sax)))") in keys


def test_transitive_fragment_is_ambiguous(lex):
    chart = parse("every girl admired".split(), lex)
    keys = {rkey(it.cat) for it in chart.cell(0, 3)}
    assert key("s:q-every(X,girl(X),admired(X,Y))/np:num(Y,M)") in keys
    assert key("s:admired(s-every(girl),Y)/np:num(Y,M)") in keys


def test_noun_modifier_fragment_dead_end(lex):
    chart = parse("of three companies touched".split(), lex)
    assert chart.full_span() == []
    shapes = {format_cat(canonical_cat(it.cat), with_sems=False)
              for it in chart.cell(0, 3)}
    assert r"n\n" in shapes


def test_embedded_set_form_fragment(lex):
    chart = parse("investigate two dialects of".split(), lex)
    keys = {rkey(it.cat) for it in chart.full_span()}
    assert key(r"(s:investigate(X,s-two(Y^and(dialect(Y),of(Y,Z))))"
               r"\np:num(X,N))/np:num(Z,M)") in keys


def test_unknown_token(lex):
    with pytest.raises(UnknownTokenError):
        parse(["every", "zebra"], lex)


def test_token_limit(lex):
    with pytest.raises(ResourceError):
        parse(["john"] * 33, lex)


def test_item_budget(lex, monkeypatch):
    tokens = "every girl admired one saxophonist".split()
    size = len(parse(tokens, lex).items)
    monkeypatch.setattr(chart_module, "MAX_ITEMS", size)
    assert len(parse(tokens, lex).items) == size
    monkeypatch.setattr(chart_module, "MAX_ITEMS", size - 1)
    with pytest.raises(ResourceError, match=f"{size - 1}-item"):
        parse(tokens, lex)


def test_parse_is_deterministic(lex):
    tokens = "every girl admired one saxophonist".split()
    a, b = parse(tokens, lex), parse(tokens, lex)
    assert {sp: list(cell) for sp, cell in a.cells.items()} \
        == {sp: list(cell) for sp, cell in b.cells.items()}
    assert {i: it.backs for i, it in a.items.items()} \
        == {i: it.backs for i, it in b.items.items()}


def test_counts_match_enumeration_and_replay(lex):
    chart = parse("every girl admired one saxophonist".split(), lex)
    counts = count_derivations(chart)
    for item in chart.full_span():
        trees = list(derivations(chart, item))
        assert len(trees) == counts[item.id] > 0
        for tree in trees:
            replay(tree)


def test_backpointer_check_passes_on_every_corpus_chart(lex):
    for _, sent, _, _ in read_data("corpus.txt", None, _corpus_entry):
        check_backpointers(parse(tokenize(sent), lex))


def test_backpointer_check_keys_each_item_once(lex, monkeypatch):
    # One cat_key per replayed result, and one per item that has a rule
    # backpointer for its stored category.
    chart = parse("every dealer shows most customers three cars".split(), lex)
    rules = [[back for back in it.backs if back[0] != "lex"]
             for it in chart.items.values()]
    calls = []

    def counted(cat):
        calls.append(cat)
        return cat_key(cat)

    monkeypatch.setattr(chart_module, "cat_key", counted)
    check_backpointers(chart)
    assert len(calls) == sum(map(len, rules)) + sum(1 for backs in rules if backs)


def test_backpointer_rewired_to_wrong_child_fails_check(lex):
    chart = parse("three frenchmen visited five russians".split(), lex)
    item = chart.full_span()[0]
    label, li, ri = item.backs[0]
    # Put another item of the left child's span in the left child's place.
    (wrong, *_) = [it for it in chart.cell(*chart.items[li].span) if it.id != li]
    item.backs[0] = (label, wrong.id, ri)
    with pytest.raises(ChartError):
        check_backpointers(chart)


def test_pretty_single_leaf(lex):
    chart = parse(["john"], lex)
    tree = next(derivations(chart, chart.full_span()[0]))
    assert pretty(chart, tree) == "john  ::  np:num(john, sg)  [lex]"


# Engine facts, pinned on purpose: the size of the packed chart for every
# bundled corpus entry, as (items, full-span items, backpointers, derivations
# of the full-span items).  These are not reading counts, which
# test_acceptance argues from the paper's account; they record how this
# engine builds its chart, so a change to closure, cell keys or the lexicon
# that alters the chart shows up here as a visible diff.
CORPUS_CHART_COUNTS = {
    "three frenchmen visited five russians": (28, 5, 36, 15),
    "two representatives of three companies saw most samples": (55, 11, 75, 114),
    "every dealer shows most customers three cars": (63, 12, 98, 83),
    "most boys think that every man danced with two women": (81, 16, 136, 207),
    "john thinks that every man danced with two women": (58, 7, 84, 49),
    "most boys think that bill danced with two women": (30, 4, 33, 9),
    "every girl admired, but most boys detested, one of the saxophonists":
        (45, 8, 57, 20),
    "most boys think that every man danced with, but doubt that a few boys"
    " talked to, more than two women": (116, 20, 170, 756),
    "some student will investigate two dialects of, and collect all interesting"
    " examples of coordination in, every language": (56, 5, 79, 88),
    "every dealer shows most customers at most three cars but most mechanics"
    " every car": (45, 2, 46, 3),
    "of three companies touched": (61, 0, 62, 0),
}


def test_corpus_chart_counts_are_pinned(lex):
    got = {}
    for _, sentence, _, _ in read_data("corpus.txt", None, _corpus_entry):
        chart = parse(tokenize(sentence), lex)
        counts = count_derivations(chart)
        full = chart.full_span()
        got[sentence] = (len(chart.items), len(full),
                         sum(len(it.backs) for it in chart.items.values()),
                         sum(counts[it.id] for it in full))
    assert got == CORPUS_CHART_COUNTS


CLOSURE_CASES = [sent for _, sent, _, _ in read_data("corpus.txt", None, _corpus_entry)] \
    + [coordination_sentence(case) for case in (1, 2, 3, 4, "rnr")] + [PP_CHAIN_3[0]]
PP_CHAIN_4 = ("one saxophonist in every boy of one girl of a woman of three"
              " saxophonists touched a girl")


@pytest.mark.parametrize("sentence", CLOSURE_CASES)
def test_rule_backpointers_name_items_built_earlier(lex, sentence):
    # count_derivations counts in one pass in id order, which needs every
    # child of a rule backpointer to have a smaller id than its parent.
    chart = parse(tokenize(sentence), lex)
    assert all(child < item.id for item in chart.items.values()
               for back in item.backs if back[0] != "lex" for child in back[1:])


@pytest.fixture(scope="module")
def oracle(lex):
    """The all-pairs chart of a sentence, built once per module."""
    charts = {}

    def get(sentence):
        if sentence not in charts:
            charts[sentence] = all_pairs_parse(tokenize(sentence), lex)
        return charts[sentence]
    return get


@pytest.mark.parametrize("sentence", CLOSURE_CASES)
def test_shape_paired_closure_builds_the_all_pairs_chart(lex, oracle, sentence):
    # The oracle keeps constituents whose quantifiers bind non-variables;
    # the rules refuse to build them.  Its well-formed part keeps only the
    # backpointers between well-formed items, so a well-formed item that
    # needed an ill-formed one would show here as a lost backpointer.
    pruned, full = parse(tokenize(sentence), lex), well_formed_part(oracle(sentence))
    if not full.full_span():
        # Nothing spans the input, so no shape is pruned.
        assert item_sequence(list(pruned.items.values())) \
            == item_sequence(list(full.items.values()))
        return
    # Every item a full-span item reaches is built, with every
    # backpointer, in order; what else is built is in the oracle's chart.
    assert item_sequence(live_items(pruned)) == item_sequence(live_items(full))
    keys = {(it.span, cat_key(it.cat)) for it in full.items.values()}
    assert all((it.span, cat_key(it.cat)) in keys for it in pruned.items.values())


def readings_or_no_parse(chart):
    try:
        return readings_from_chart(chart)
    except NoParseError:
        return "no parse"


@pytest.mark.parametrize("sentence", CLOSURE_CASES + [PP_CHAIN_4])
def test_pruned_chart_gives_the_all_pairs_readings(lex, oracle, sentence):
    # Same terms, multiplicities and order: no reading of the bundled
    # fragment needs a constituent whose quantifier binds a non-variable.
    # readings_from_chart expects a chart without such constituents, so the
    # oracle's are dropped here; no derivation of a well-formed full-span
    # item runs through one, so its multiplicity is the whole oracle's.
    full = oracle(sentence)
    part = well_formed_part(full)
    counts, part_counts = count_derivations(full), count_derivations(part)
    assert all(part_counts[it.id] == counts[it.id] for it in part.full_span())
    got = readings_or_no_parse(parse(tokenize(sentence), lex))
    assert got == readings_or_no_parse(part)


def test_every_rule_success_is_a_shape_rule_result(oracle):
    # The soundness of pruning: each term-level combination projects onto
    # the shape-level result of a row of ROWS on the two input shapes.
    successes = 0
    for chart in map(oracle, CLOSURE_CASES + [PP_CHAIN_4]):
        for item in chart.items.values():
            for back in item.backs:
                if back[0] == "lex":
                    continue
                label, li, ri = back
                left, right = chart.items[li].shape, chart.items[ri].shape
                index = chart_module._index([right], {})
                results = {(lab, out) for _, lab, out
                           in chart_module._partners(left, chart_module._asks(left), index)}
                assert (label, item.shape) in results
                successes += 1
    assert successes > 5000


# A depth-7 PP chain, 26 tokens.  The all-pairs chart would exceed
# MAX_ITEMS; the items that can reach a full-span item fit.
PP_CHAIN_7 = ("one saxophonist in every boy of one girl of a woman of three"
              " saxophonists in three boys in every dealer of all russians"
              " admired a saxophonist")


def test_depth_seven_pp_chain_parses_within_the_budget(lex):
    tokens = tokenize(PP_CHAIN_7)
    assert len(tokens) == 26
    chart = parse(tokens, lex)
    assert chart.full_span() and len(chart.items) <= chart_module.MAX_ITEMS
    check_backpointers(chart)


# Clause embedding three deep, as the benchmark's embedding family builds it.
EMBEDDING_3 = ("most boys think that every man thinks that two women doubt that"
               " a girl saw john")


@pytest.mark.parametrize("sentence", CLOSURE_CASES + [PP_CHAIN_4, PP_CHAIN_7, EMBEDDING_3])
def test_every_chart_item_is_well_formed(lex, sentence):
    # What lets readings_from_chart skip the check: the lexicon holds no
    # quantifier over a non-variable, and no rule builds one.
    chart = parse(tokenize(sentence), lex)
    assert chart.items
    for item in chart.items.values():
        assert all(_well_formed(at.sem) for at in atomics(item.cat)), cat_key(item.cat)


def test_partners_of_several_shapes_come_in_id_order():
    # f combines with np (>) and with np/np (>B); the np item's id falls
    # between the two np/np items', so grouping by shape alone would put
    # it first.
    lex = load_lexicon("f :: s:f(A)/np:A\n"
                       "g :: np:g1/np:C\n"
                       "g :: np:g2\n"
                       "g :: np:g3/np:C\n")
    chart = parse(["f", "g"], lex)
    assert [rkey(it.cat) for it in chart.full_span()] == \
        [key("s:f(g1)/np:C"), key("s:f(g2)"), key("s:f(g3)/np:C")]
    assert item_sequence(list(chart.items.values())) \
        == item_sequence(list(all_pairs_parse(["f", "g"], lex).items.values()))


# --- term records -----------------------------------------------------------

RECORD_CASES = [sent for _, sent, _, _ in read_data("corpus.txt", None, _corpus_entry)] \
    + [pp_chain(depth, seed)[0] for depth in range(1, 6) for seed in (1, 2, 3)] \
    + [embedding(depth, seed)[0] for depth in range(1, 4) for seed in (1, 2, 3)]


def record_free_vars(term, memo):
    # Oracle: the variables among term's subterms, computed bottom-up
    # without reading a record; memo is keyed by node, as chart items
    # share subterms.
    got = memo.get(id(term))
    if got is None:
        if isinstance(term, Var):
            got = frozenset([term])
        else:
            got = frozenset().union(*(record_free_vars(k, memo) for k in children(term)))
        memo[id(term)] = got
    return got


def rewritable(node):
    # The two rewrites of apply_reduced, tested at node alone.
    if is_and(node) and is_and(node.args[1]):
        return True
    return (is_set_form(node) and isinstance(node.args[0], Lam)
            and isinstance(node.args[0].body, Compound)
            and node.args[0].body.args == (node.args[0].param,))


def test_every_recorded_chart_term_holds_the_record_invariant(lex):
    # A record names exactly the variables among the term's subterms; a
    # recorded term's children are recorded, variables or atoms; and no
    # recorded term can be rewritten, so each is canonical.
    for sentence in RECORD_CASES:
        chart, memo, recorded = parse(tokenize(sentence), lex), {}, 0
        for item in chart.items.values():
            for at in atomics(item.cat):
                for node in subterms(at.sem):
                    if isinstance(node, (Var, Atom)) or node.varset is None:
                        continue
                    recorded += 1
                    assert node.varset == record_free_vars(node, memo), sentence
                    assert all(isinstance(k, Var) or k.varset is not None
                               for k in children(node)), sentence
                    assert not rewritable(node), sentence
        assert recorded > 0, sentence


def test_rule_results_do_not_depend_on_records(lex, monkeypatch):
    # Each rule application's subst_cat, on the chart's operands (recorded
    # where a rule built them) and on unrecorded copies of the operands
    # and of the unifier's values: equal results, or the same error.
    subst_cat, tallies = chart_module.subst_cat, {"built": 0, "raised": 0}

    def outcome(s, cat):
        try:
            return subst_cat(s, cat)
        except TermError as exc:
            return exc

    def checked(s, cat):
        want = outcome({v: unrecorded(u) for v, u in s.items()}, map_sems(cat, unrecorded))
        got = outcome(s, cat)
        if isinstance(got, TermError):
            assert (type(got), str(got)) == (type(want), str(want))
            tallies["raised"] += 1
            raise got
        assert got == want and cat_key(got) == cat_key(want)
        tallies["built"] += 1
        return got

    monkeypatch.setattr(chart_module, "subst_cat", checked)
    for sentence in RECORD_CASES:
        parse(tokenize(sentence), lex)
    assert tallies["built"] > 10000 and tallies["raised"] > 5, tallies
