import operator
import random
import warnings
from collections import Counter

import pytest

from ccgscope import chart as chart_module
from ccgscope import lexicon as lexicon_module
from ccgscope.categories import (
    atomics,
    canonical_cat,
    cat_key,
    cat_shape,
    cat_text,
    format_cat,
    map_sems,
    parse_cat,
    subst_cat,
)
from ccgscope.chart import (
    ResourceError,
    bwd_apply,
    bwd_compose,
    count_derivations,
    derivations,
    fwd_apply,
    fwd_compose,
    parse,
    passes_through,
    pretty,
)
from ccgscope.cli import _corpus_entry, _data_text, read_data, tokenize
from ccgscope.lexicon import (
    Lexicon,
    UnknownTokenError,
    _split_top,
    default_lexicon,
    load_lexicon,
)
from ccgscope.readings import NoParseError, readings_from_chart
from ccgscope.terms import (
    Atom,
    Compound,
    Lam,
    Renamer,
    TermError,
    Var,
    children,
    format_term,
    is_and,
    is_set_form,
    subterms,
)

import helpers
from helpers import (
    CHART_FORM_VARIANTS,
    MULTI_WORD_LEXICONS,
    ChartError,
    all_pairs_parse,
    cat_vars,
    check_backpointers,
    cluster,
    embedding,
    item_sequence,
    keyed_parse,
    live_items,
    oracle_live_edges,
    oracle_live_shapes,
    pp_chain,
    replay,
    tagged_cat,
    unrecorded,
    well_formed,
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
    assert {sp: [cat_key(it.cat) for it in cell] for sp, cell in a.cells.items()} \
        == {sp: [cat_key(it.cat) for it in cell] for sp, cell in b.cells.items()}
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


def test_every_items_count_is_its_number_of_derivations(chart_of):
    # Each item's count is the number of trees derivations enumerates, on
    # the corpus, the keying cases and the multi-word lexicons, where a
    # lexical item is older than the rule results merged into it.  The
    # depth-5 PP chains are left out for time: over 2 million trees each.
    deep = {pp_chain(5, seed)[0] for seed in (1, 2, 3)}
    charts = [(sentence, chart_of(sentence)) for sentence in KEYING_CASES
              if sentence not in deep]
    trees = 0
    for sentence, chart in charts + multi_word_charts():
        counts = count_derivations(chart)
        assert counts.keys() == chart.items.keys(), sentence
        for item in chart.items.values():
            found = sum(1 for _ in derivations(chart, item))
            assert found == counts[item.id] > 0, (sentence, item.id)
            trees += found
    assert trees > 500_000, trees


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

    monkeypatch.setattr(helpers, "cat_key", counted)
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


def test_replayed_category_that_differs_is_named_in_print(lex):
    chart = parse("three frenchmen visited five russians".split(), lex)
    item, other = chart.full_span()[:2]
    built = item.cat
    chart.items[item.id] = item._replace(cat=other.cat)
    with pytest.raises(ChartError) as caught:
        check_backpointers(chart)
    assert str(caught.value) == (f"replayed category differs at (0, 5):"
                                 f" {cat_text(built)} vs {cat_text(other.cat)}")


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
def test_rule_backpointers_name_items_built_earlier(chart_of, sentence):
    # With the bundled lexicon every child of a rule backpointer has a
    # smaller id than its parent: no lexeme spans two tokens, so each item
    # of a span is built after the narrower items it is built from.
    # count_derivations does not rely on it; it counts by span width,
    # since a lexical item of a multi-word lexeme is older than the rule
    # results that merge into it (MULTI_WORD_LEXICONS).
    chart = chart_of(sentence)
    assert all(child < item.id for item in chart.items.values()
               for back in item.backs if back[0] != "lex" for child in back[1:])


@pytest.mark.parametrize("sentence", CLOSURE_CASES + [PP_CHAIN_4])
def test_no_two_items_share_a_backpointer_list(chart_of, sentence):
    # backs is an item's one mutable field: parse hands each item a list
    # of its own, so a backpointer added to one item shows on no other.
    items = chart_of(sentence).items.values()
    assert len({id(item.backs) for item in items}) == len(items)


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
def test_shape_paired_closure_builds_the_all_pairs_chart(chart_of, oracle, sentence):
    # The oracle keeps constituents whose quantifiers bind non-variables;
    # the rules refuse to build them.  Its well-formed part keeps only the
    # backpointers between well-formed items, so a well-formed item that
    # needed an ill-formed one would show here as a lost backpointer.
    pruned, full = chart_of(sentence), well_formed_part(oracle(sentence))
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
def test_pruned_chart_gives_the_all_pairs_readings(chart_of, oracle, sentence):
    # Same terms, multiplicities and order: no reading of the bundled
    # fragment needs a constituent whose quantifier binds a non-variable.
    # readings_from_chart expects a chart without such constituents, so the
    # oracle's are dropped here; no derivation of a well-formed full-span
    # item runs through one, so its multiplicity is the whole oracle's.
    full = oracle(sentence)
    part = well_formed_part(full)
    counts, part_counts = count_derivations(full), count_derivations(part)
    assert all(part_counts[it.id] == counts[it.id] for it in part.full_span())
    got = readings_or_no_parse(chart_of(sentence))
    assert got == readings_or_no_parse(part)


def test_every_rule_success_is_a_shape_rule_result(oracle):
    # The soundness of pruning: each term-level combination projects onto
    # an edge of the shape table between the two input shapes, the result
    # of a row of ROWS on them.
    table, successes = chart_module._TABLE, 0
    for chart in map(oracle, CLOSURE_CASES + [PP_CHAIN_4]):
        for item in chart.items.values():
            for back in item.backs:
                if back[0] == "lex":
                    continue
                label, li, ri = back
                left, right = (table.id(chart.items[i].shape) for i in (li, ri))
                results = table.edges(frozenset([left]), frozenset([right]))
                assert table.shapes[results[left][right][label]] == item.shape
                successes += 1
    assert successes > 5000


# A depth-7 PP chain, 26 tokens.  The all-pairs chart would exceed
# MAX_ITEMS; the items that can reach a full-span item fit.
PP_CHAIN_7 = ("one saxophonist in every boy of one girl of a woman of three"
              " saxophonists in three boys in every dealer of all russians"
              " admired a saxophonist")


def test_depth_seven_pp_chain_parses_within_the_budget(chart_of):
    assert len(tokenize(PP_CHAIN_7)) == 26
    chart = chart_of(PP_CHAIN_7)
    assert chart.full_span() and len(chart.items) <= chart_module.MAX_ITEMS
    check_backpointers(chart)


# Clause embedding three deep, as the benchmark's embedding family builds it.
EMBEDDING_3 = ("most boys think that every man thinks that two women doubt that"
               " a girl saw john")


def chart_record(chart):
    return [(it.id, it.span, cat_key(it.cat), it.shape, it.backs)
            for it in chart.items.values()]


def filed_record(chart):
    """chart_record and, per span, the cat_key of each item its cell
    lists, in the cell's order."""
    return chart_record(chart), {span: [cat_key(it.cat) for it in cell]
                                 for span, cell in chart.cells.items()}


def test_a_cold_and_a_warm_shape_table_build_the_same_chart(lex, monkeypatch):
    # The shape table holds what ROWS gives on shapes, whatever lexicon
    # and sentence met them first, so the charts are the same whether
    # each parse starts from an empty table, from one that every sentence
    # has filled, or from one cleared now and then under a small cap.
    sentences = CLOSURE_CASES + [PP_CHAIN_4, EMBEDDING_3]
    assert "of three companies touched" in sentences
    table = chart_module._TABLE
    cold = []
    for sentence in sentences:
        table.clear()
        cold.append(filed_record(parse(tokenize(sentence), lex)))
    warm = [filed_record(parse(tokenize(sentence), lex)) for sentence in sentences]
    monkeypatch.setattr(chart_module, "MAX_SHAPE_TABLE", 150)
    capped, sizes = [], []
    for sentence in sentences:
        capped.append(filed_record(parse(tokenize(sentence), lex)))
        sizes.append(table.size())
    for sentence, *charts in zip(sentences, cold, warm, capped):
        assert charts[0] == charts[1] == charts[2], sentence
    assert any(later < earlier for earlier, later in zip(sizes, sizes[1:])), sizes


@pytest.mark.parametrize("sentence", CLOSURE_CASES + [PP_CHAIN_4, EMBEDDING_3])
def test_the_shape_pass_marks_what_the_plain_shape_backbone_marks(lex, monkeypatch, sentence):
    # The shape pass on table ids marks the (span, shape) pairs that the
    # same pass on shape values marks, and closure builds nothing else.
    passes, live_edges = [], chart_module._live_edges

    def capture(n, lexical):
        passes.append(live_edges(n, lexical))
        return passes[-1]
    monkeypatch.setattr(chart_module, "_live_edges", capture)
    tokens = tokenize(sentence)
    chart = parse(tokens, lex)
    (live, _), = passes
    shapes = chart_module._TABLE.shapes
    marked = {(span, shapes[sid]) for span, ids in live.items() for sid in ids}
    assert marked == oracle_live_shapes(tokens, lex)
    assert all((it.span, it.shape) in marked for it in chart.items.values())


@pytest.mark.parametrize("sentence", CLOSURE_CASES + [PP_CHAIN_4, PP_CHAIN_7, EMBEDDING_3])
def test_every_chart_item_is_well_formed(chart_of, sentence):
    # What lets readings_from_chart skip the check: the lexicon holds no
    # quantifier over a non-variable, and no rule builds one.
    chart = chart_of(sentence)
    assert chart.items
    for item in chart.items.values():
        assert all(well_formed(at.sem) for at in atomics(item.cat)), cat_text(item.cat)


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


def multi_word_charts():
    """(sentence, chart) of each sentence of MULTI_WORD_LEXICONS, parsed
    on its lexicon."""
    return [(sentence, parse(tokenize(sentence), lexicon))
            for text, sentences in MULTI_WORD_LEXICONS
            for lexicon in [load_lexicon(text)] for sentence in sentences]


def test_every_chart_term_is_recorded_and_holds_the_record_invariant(chart_of):
    # Every compound, lambda and up(.) term of every item, lexical items
    # included, is recorded: lexical copies at birth (Lexicon.chart_copy),
    # rule results by subst_cat.  A record names exactly the variables
    # among the term's subterms, and no recorded term can be rewritten, so
    # each is canonical.
    charts = [(sentence, chart_of(sentence)) for sentence in KEYING_CASES]
    checked = 0
    for sentence, chart in charts + multi_word_charts():
        memo = {}
        for item in chart.items.values():
            for at in atomics(item.cat):
                for node in subterms(at.sem):
                    if isinstance(node, (Var, Atom)):
                        continue
                    assert node.varset == record_free_vars(node, memo), sentence
                    assert not rewritable(node), sentence
                    checked += 1
    assert checked > 3000, checked


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


# --- cell keys ----------------------------------------------------------------

KEYING_CASES = RECORD_CASES + [coordination_sentence(k) for k in (1, 2, 3)]


def test_an_items_shape_is_its_categorys_shape(chart_of):
    # parse hands each item its shape from the shape pass: a lexical
    # entry's, or the result shape of the edge that builds it.  The
    # corpus's UNGRAMMATICAL fragment has no full-span shape, so there the
    # pass marks every (span, shape).
    assert "of three companies touched" in KEYING_CASES
    assert not chart_of("of three companies touched").full_span()
    checked = 0
    for sentence in KEYING_CASES:
        for item in chart_of(sentence).items.values():
            assert item.shape == cat_shape(item.cat), (sentence, item.id)
            checked += 1
    assert checked > 8000, checked


def lexical_items(chart):
    return [it for it in chart.items.values() if it.backs[0][0] == "lex"]


def keying_tallies(sentences, lex, monkeypatch):
    """The totals of sentence_tallies over sentences, parsed on lex."""
    totals = Counter()
    for _, tally in sentence_tallies([(sentence, lex) for sentence in sentences],
                                     monkeypatch):
        totals.update(tally)
    return dict(totals)


def signature(cat, shape):
    """Oracle for the signature parse groups rule results by, read by
    walking the terms: the shape and, per atomic, its semantics' functor
    (an atom's name, or a variable's, lambda's or up(.)'s node type) and
    how many variables occur in it, lambda parameters included."""
    out = [shape]
    for at in atomics(cat):
        sem = at.sem
        head = (sem.functor if isinstance(sem, Compound)
                else sem.name if isinstance(sem, Atom) else type(sem))
        out += [head, len({node for node in subterms(sem) if isinstance(node, Var)})]
    return tuple(out)


def sentence_tallies(parses, monkeypatch):
    """Parse each (sentence, lexicon) pair with cat_key and the rules
    wrapped, check the keying law on its chart, and return the chart and
    its tally per pair.

    The law: the lexical items arrive first, each an item of its own,
    and then the rule results, and each arrival is filed alike.  One
    equal to a category filed in its cell goes to that category's item
    without a call.  Every other arrival is filed for later lookups,
    whether it makes an item or is a variant duplicate, and is keyed only
    when its cell holds an item of its signature (signature, above); that
    item is keyed too, once, when the first such arrival comes.  So
    cat_key runs exactly on those categories, in that order, and an
    arrival lands on the item of its own key, cat_key of the item's
    category.  Equality
    is judged by the type-tagged oracle, not by the terms' own.  Rule
    results share most of their subterms, so each node object is tagged
    once per sentence, and each tagged form keyed once: equal forms are
    the same tree, and cat_key reads nothing else."""
    calls, results = [], []

    def counted(cat):
        calls.append(cat)
        return cat_key(cat)

    def recorded(label, fn):
        def rule(left, right):
            out = fn(left, right)
            if out is not None:
                results.append((label, left, right, out))
            return out
        return rule

    monkeypatch.setattr(chart_module, "cat_key", counted)
    monkeypatch.setattr(chart_module, "RULES", tuple(
        (label, recorded(label, fn)) for label, fn in chart_module.RULES))
    tallied = []
    for sentence, lex in parses:
        calls.clear()
        results.clear()
        chart = parse(tokenize(sentence), lex)
        made = list(calls)
        items = chart.items.values()
        by_cat = {id(it.cat): it for it in items}
        # Every lexical entry made an item, so only rule results duplicate.
        lexical = lexical_items(chart)
        assert sum(back[0] == "lex" for it in items for back in it.backs) == len(lexical)
        # A cell lists its span's items in id order, and variants share
        # one item.
        spans = {}
        for it in items:
            spans.setdefault(it.span, []).append(it)
        assert chart.cells == spans, sentence
        key_of = {it.id: cat_key(it.cat) for it in items}
        assert all(len({key_of[it.id] for it in cell}) == len(cell)
                   for cell in spans.values()), sentence
        by_back = {back: it for it in items for back in it.backs}
        # (item, category) per arrival, in order: each lexical item with
        # its own category, then each rule result with the item it joins.
        arrivals = [(it, it.cat) for it in lexical]
        for label, left, right, out in results:
            li, ri = by_cat[id(left)], by_cat[id(right)]
            assert li.cat is left and ri.cat is right
            item = by_back[(label, li.id, ri.id)]
            assert item.span == (li.span[0], ri.span[1])
            arrivals.append((item, out))
        filed = {}     # span -> tagged forms of the categories filed there
        keys = {}      # span -> the keys of its items
        variants = {}  # span -> tagged forms of its variant duplicates
        signed = {}    # span -> {signature: its first item, None once keyed}
        keyed = []     # the categories parse keys, in order
        tagged_nodes, key_of_form = {}, {}
        tally = Counter()
        for item, out in arrivals:
            span = item.span
            form = tagged_cat(out, tagged_nodes)
            key = key_of_form.get(form)
            if key is None:
                key = key_of_form[form] = cat_key(out)
            assert key == key_of[item.id], sentence
            if form in filed.setdefault(span, set()):
                tally["equal"] += 1
                tally["equal to a variant"] += form in variants.get(span, ())
                continue
            filed[span].add(form)
            sig, firsts = signature(out, item.shape), signed.setdefault(span, {})
            if sig in firsts:
                tally["shared signature"] += 1
                if firsts[sig] is not None:
                    tally["keyed earlier"] += 1
                    keyed.append(firsts[sig].cat)
                    firsts[sig] = None
                keyed.append(out)
            if key in keys.setdefault(span, set()):
                assert keyed and keyed[-1] is out, sentence
                tally["variant"] += 1
                variants.setdefault(span, set()).add(form)
            else:
                assert item.cat is out, sentence
                tally["new"] += 1
                keys[span].add(key)
                firsts[sig] = None if keyed and keyed[-1] is out else item
        assert tally["new"] == len(chart.items), sentence
        # cat_key ran on exactly these categories, in this order.
        assert len(made) == len(keyed) and all(map(operator.is_, made, keyed)), sentence
        tally.update({"items": len(chart.items), "lexical items": len(lexical),
                      "cat_key calls": len(made)})
        del tally["new"]
        tallied.append((chart, tally))
    return tallied


@pytest.fixture(scope="module")
def keying_forward():
    """KEYING_CASES parsed in order on one fresh lexicon through
    sentence_tallies: (the lexicon, each sentence's chart and tally)."""
    lex = default_lexicon()
    with pytest.MonkeyPatch.context() as monkeypatch:
        return lex, sentence_tallies([(sentence, lex) for sentence in KEYING_CASES],
                                     monkeypatch)


def test_parse_keys_only_new_items_and_variant_duplicates(keying_forward):
    # Engine facts, pinned on purpose: the items built over KEYING_CASES,
    # and the rule results that duplicate an item, split into those equal
    # to a category already filed in their cell and the variants of one.
    # None of these sentences gives a result equal to a variant duplicate;
    # the next test does.  Lexical items are filed as rule results are,
    # and no two items of one lexical cell here share a signature, so
    # cat_key runs for the results whose signature an item of their cell
    # shares, and once for each such item: 5,009 keys, where keying every
    # item and variant would take 8,749 + 241 = 8,990.
    totals = Counter()
    for _, tally in keying_forward[1]:
        totals.update(tally)
    assert dict(totals) == {
        "items": 8749, "lexical items": 960, "equal": 7835, "equal to a variant": 0,
        "variant": 241, "shared signature": 4137, "keyed earlier": 872,
        "cat_key calls": 4137 + 872}


def test_a_result_equal_to_a_variant_duplicate_is_looked_up(monkeypatch):
    # In the cell of "x x e", the lexical item np:x(x(e(D))) comes first.
    # x + (x e) then gives a variant of it, with e's variable, of its
    # signature, so both are keyed, the lexical item first; (x x) + e
    # gives a result equal to that variant, found without a key.  The rule
    # items (x x) and (x e) are alone in their cells, so they are not
    # keyed.
    lex = load_lexicon(MULTI_WORD_LEXICONS[0][0])
    assert keying_tallies(["x x e"], lex, monkeypatch) == {
        "items": 6, "lexical items": 4, "equal": 1, "equal to a variant": 1,
        "variant": 1, "shared signature": 1, "keyed earlier": 1, "cat_key calls": 2}


def test_two_lexical_items_of_one_signature_are_both_keyed(monkeypatch):
    # The lexical items np:f(a, B) and np:f(B, a) of "x y" share a
    # signature, so the second is keyed on arrival and the first with it.
    # x + y then gives a variant of np:f(a, B), of the same signature,
    # keyed and found by its key.
    lex = load_lexicon(MULTI_WORD_LEXICONS[1][0])
    assert keying_tallies(["x y"], lex, monkeypatch) == {
        "items": 4, "lexical items": 4, "variant": 1, "shared signature": 2,
        "keyed earlier": 1, "cat_key calls": 3}


# The sentences parse and keyed_parse are compared on: the closure and
# keying cases, and seeded argument clusters.
ORACLE_CASES = list(dict.fromkeys(
    CLOSURE_CASES + KEYING_CASES + [PP_CHAIN_4]
    + [cluster(k, seed) for k in (1, 2, 3) for seed in (1, 2, 3)]))


def test_parse_builds_the_chart_that_keying_every_result_builds(lex):
    # keyed_parse keys every arrival its cell has not filed and walks
    # every split; parse keys one only when its signature is in its
    # cell, and walks only the splits that hold an edge.  The charts are the same item for item, and the cells
    # list the same items in the same order.
    assert len(ORACLE_CASES) > 50
    for sentence in ORACLE_CASES:
        tokens = tokenize(sentence)
        assert filed_record(parse(tokens, lex)) == filed_record(keyed_parse(tokens, lex)), \
            sentence


def test_parse_builds_the_keyed_chart_on_user_lexicons():
    # Lexicons with multi-word lexemes and with entries whose chart forms
    # are variants of one another's written forms.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        parses = [(load_lexicon(text), sentence)
                  for text, _, sentence, _ in CHART_FORM_VARIANTS.values()]
    parses += [(load_lexicon(text), sentence) for text, sentences in MULTI_WORD_LEXICONS
               for sentence in sentences]
    for lexicon, sentence in parses:
        tokens = tokenize(sentence)
        assert filed_record(parse(tokens, lexicon)) \
            == filed_record(keyed_parse(tokens, lexicon)), sentence


def test_a_one_to_one_renaming_keeps_a_rule_results_signature(chart_of):
    # Each rule item of a seeded sample of sentences, its variables
    # renamed one-to-one to a seeded shuffle of fresh names and the result
    # recorded again (subst_cat with no bindings): a variant of the item,
    # and the same signature.
    rng, checked = random.Random(30), 0
    for sentence in rng.sample(KEYING_CASES, 12):
        for item in chart_of(sentence).items.values():
            if item.backs[0][0] == "lex":
                continue
            old = [v.id for v in cat_vars(item.cat)]
            new = [f"R{i}" for i in range(len(old))]
            rng.shuffle(new)
            renamed = map_sems(item.cat, Renamer(dict(zip(old, new)).__getitem__).rename)
            recorded = subst_cat({}, renamed)
            assert cat_key(recorded) == cat_key(item.cat)
            assert chart_module._signature(recorded) == chart_module._signature(item.cat)
            checked += bool(old)
    assert checked > 1000, checked


@pytest.mark.parametrize("sentence", CLOSURE_CASES + [PP_CHAIN_4, EMBEDDING_3])
def test_the_shape_pass_visits_only_filled_splits(lex, monkeypatch, sentence):
    # _live_edges returns what the loop over every split returns, and asks
    # the shape table for the same edges in the same order: once per split
    # whose two cells are non-empty, which the dense loop asks for once
    # each and skips every other split.
    asked, edges = [], chart_module._ShapeTable.edges

    def counted(table, lefts, rights):
        asked.append((lefts, rights))
        return edges(table, lefts, rights)
    passes, live_edges = [], chart_module._live_edges

    def capture(n, lexical):
        passes.append((n, lexical, live_edges(n, lexical)))
        return passes[-1][2]
    monkeypatch.setattr(chart_module._ShapeTable, "edges", counted)
    monkeypatch.setattr(chart_module, "_live_edges", capture)
    parse(tokenize(sentence), lex)
    (n, lexical, got), = passes
    visited = asked[:]
    asked.clear()
    assert got == oracle_live_edges(n, lexical)
    assert asked == visited
    # The dense loop has (n^3 - n) / 6 splits.
    assert len(visited) < (n ** 3 - n) // 6


# --- backpointers ---------------------------------------------------------------

def test_every_backpointer_parse_adds_is_new(lex, monkeypatch):
    # parse appends each backpointer without a search: each lexical copy
    # it enters and each rule success is a backpointer of its own, and no
    # item holds one twice.  Two entries of one lexeme with chart form
    # variants would enter two copies under one ("lex", tag) backpointer:
    # the lexicon keeps only the first (CHART_FORM_VARIANTS).
    entered = Counter()
    chart_copy = Lexicon.chart_copy

    def copied(self, entry, n):
        entered["lex"] += 1
        return chart_copy(self, entry, n)

    def counted(fn):
        def rule(left, right):
            out = fn(left, right)
            entered["rule"] += out is not None
            return out
        return rule

    monkeypatch.setattr(Lexicon, "chart_copy", copied)
    monkeypatch.setattr(chart_module, "RULES", tuple(
        (label, counted(fn)) for label, fn in chart_module.RULES))
    parses = [(sentence, lex) for sentence in
              dict.fromkeys(CLOSURE_CASES + KEYING_CASES + [PP_CHAIN_4])]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        parses += [(sentence, load_lexicon(text))
                   for text, _, sentence, _ in CHART_FORM_VARIANTS.values()]
    total = 0
    for sentence, lexicon in parses:
        entered.clear()
        items = parse(tokenize(sentence), lexicon).items.values()
        backs = sum(len(it.backs) for it in items)
        assert backs == entered["lex"] + entered["rule"], sentence
        assert all(len(set(it.backs)) == len(it.backs) for it in items), sentence
        total += backs
    assert total > 15000, total


# --- lexical chart copies -------------------------------------------------------

def test_an_entry_used_twice_gets_two_copies_with_no_variable_in_common():
    # The first "every" enters as its entries' copies 0, the second as
    # their copies 1: equal keys, no shared variable.
    lex = default_lexicon()
    chart = parse(tokenize("every man saw every woman"), lex)
    lexical = lexical_items(chart)
    firsts = {cat_key(it.cat): it for it in lexical if it.span == (0, 1)}
    seconds = {cat_key(it.cat): it for it in lexical if it.span == (3, 4)}
    entries = {e.chart_key: e for e in lex.entries if e.lexeme == ("every",)}
    assert firsts.keys() & seconds.keys()
    for key in firsts.keys() & seconds.keys():
        first, second = firsts[key], seconds[key]
        assert first.cat is lex.chart_copy(entries[key], 0)
        assert second.cat is lex.chart_copy(entries[key], 1)
        assert not set(cat_vars(first.cat)) & set(cat_vars(second.cat))
    # No two lexical items of the chart share a variable.
    var_sets = [set(cat_vars(it.cat)) for it in lexical]
    assert sum(map(len, var_sets)) == len(set().union(*var_sets))


def test_chart_copies_are_made_on_first_use_and_kept(monkeypatch):
    # Loading renames nothing.  A parse renames once per lexical item, to
    # make the copy each occurrence of an entry enters as; parsing the
    # sentence again renames nothing, and every lexical item, repeats
    # included, enters as the same object.
    renamed, rename = [], lexicon_module.standardize_apart

    def counted(cat, counter):
        renamed.append(cat)
        return rename(cat, counter)
    monkeypatch.setattr(lexicon_module, "standardize_apart", counted)
    lex = default_lexicon()
    assert renamed == []
    tokens = tokenize("every man saw every woman")
    first = lexical_items(parse(tokens, lex))
    keys_at = {span: {cat_key(it.cat) for it in first if it.span == span}
               for span in ((0, 1), (3, 4))}
    assert keys_at[(0, 1)] & keys_at[(3, 4)] and len(renamed) == len(first)
    renamed.clear()
    second = lexical_items(parse(tokens, lex))
    assert renamed == []
    before, after = ([it.cat for it in items] for items in (first, second))
    assert len(before) == len(after) and all(map(operator.is_, before, after))


def chart_readings(chart):
    try:
        return [(format_term(r.term), r.multiplicity) for r in readings_from_chart(chart)]
    except NoParseError:
        return None


def test_chart_copies_change_no_chart_reading_or_keying_work(keying_forward, monkeypatch):
    # The reference parses each sentence on a lexicon of its own.  One
    # lexicon parses KEYING_CASES forward (keying_forward) and then in
    # reverse, so each sentence twice, and a chart copy comes from
    # whichever sentence used its entry first, its variables numbered
    # accordingly.  Per sentence, the chart (ids, spans, keys, shapes,
    # backpointers in order), the readings and the keying tally are the
    # reference's all the same.
    reference = {
        sentence: (filed_record(chart), chart_readings(chart), tally)
        for sentence, (chart, tally) in zip(KEYING_CASES, sentence_tallies(
            ((sentence, default_lexicon()) for sentence in KEYING_CASES), monkeypatch))}
    lex, forward = keying_forward
    backward = sentence_tallies([(sentence, lex) for sentence in KEYING_CASES[::-1]],
                                monkeypatch)
    for sentence, (chart, tally) in zip(KEYING_CASES + KEYING_CASES[::-1], forward + backward):
        assert (filed_record(chart), chart_readings(chart), tally) == reference[sentence], \
            sentence


def respelled_lexicon(how):
    """The bundled lexicon text, comments dropped, with its variables
    spelled another way.  "reversed" and "shuffled" rename every variable
    of the :: lines one-to-one: the i-th name in sorted order becomes
    Q{1000 - i}, or a seeded shuffle of those names.  "steered-around"
    writes each @tset type's atomics with V, N, V1, V2, left to right,
    the names the engine once had to avoid when it invented its own."""
    rows = [raw.split("#", 1)[0].strip() for raw in _data_text("fragment.lex").splitlines()]
    if how == "steered-around":
        for i, row in enumerate(rows):
            if row.startswith("@tset"):
                types = []
                for t in map(parse_cat, _split_top(row[len("@tset"):])):
                    names = iter(("V", "N", "V1", "V2"))
                    types.append(format_cat(map_sems(t, lambda sem: Var(next(names)))))
                rows[i] = "@tset " + ", ".join(types)
        return "\n".join(rows)
    cats = {i: parse_cat(row.split("::", 1)[1]) for i, row in enumerate(rows) if "::" in row}
    names = sorted({v.id for cat in cats.values() for v in cat_vars(cat)})
    spellings = [f"Q{1000 - i}" for i in range(1, len(names) + 1)]
    if how == "shuffled":
        random.Random(24).shuffle(spellings)
    rename = Renamer(dict(zip(names, spellings)).__getitem__).rename
    for i, cat in cats.items():
        rows[i] = rows[i].split("::", 1)[0] + ":: " + format_cat(map_sems(cat, rename))
    return "\n".join(rows)


@pytest.mark.parametrize("how", ["reversed", "shuffled", "steered-around"])
def test_charts_and_readings_do_not_depend_on_how_the_lexicon_spells_variables(
        how, lex, chart_of, readings_of):
    # The engine's invented variables (V'1, N', V') are spelled by no
    # text, so no written name shadows or is shadowed by one.  Which of
    # two tied variables unify binds still follows the spelling, so the
    # keying work may differ (cat_key calls, variant duplicates); the
    # charts built and the readings may not.
    text = respelled_lexicon(how)
    assert ("Q999" in text) if how != "steered-around" else ("s:V\\np:N" in text)
    other = load_lexicon(text)
    assert [(e.lexeme, cat_key(e.cat), e.chart_key, e.tag) for e in other.entries] \
        == [(e.lexeme, cat_key(e.cat), e.chart_key, e.tag) for e in lex.entries]
    for sentence in KEYING_CASES:
        mine, theirs = chart_of(sentence), parse(tokenize(sentence), other)
        assert [(it.id, it.span, cat_key(it.cat), it.backs) for it in theirs.items.values()] \
            == [(it.id, it.span, cat_key(it.cat), it.backs) for it in mine.items.values()], \
            sentence
        try:
            expected = [(format_term(r.term), r.multiplicity) for r in readings_of(sentence)]
        except NoParseError:
            with pytest.raises(NoParseError):
                readings_from_chart(theirs)
            continue
        assert [(format_term(r.term), r.multiplicity) for r in readings_from_chart(theirs)] \
            == expected, sentence
