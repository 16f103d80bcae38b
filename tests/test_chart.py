from collections import Counter

import pytest

from ccgscope import chart as chart_module
from ccgscope.categories import (
    atomics,
    canonical_cat,
    cat_key,
    cat_shape,
    cat_text,
    format_cat,
    map_sems,
    parse_cat,
)
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
from ccgscope.readings import NoParseError, readings_from_chart
from ccgscope.terms import Atom, Compound, Lam, TermError, Var, children, is_and, is_set_form, subterms

from helpers import (
    all_pairs_parse,
    embedding,
    item_sequence,
    live_items,
    oracle_live_shapes,
    pp_chain,
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


def test_replayed_category_that_differs_is_named_in_print(lex):
    chart = parse("three frenchmen visited five russians".split(), lex)
    item, other = chart.full_span()[:2]
    built, item.cat = item.cat, other.cat
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
    # count_derivations counts in one pass in id order, which needs every
    # child of a rule backpointer to have a smaller id than its parent.
    chart = chart_of(sentence)
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
        cold.append(chart_record(parse(tokenize(sentence), lex)))
    warm = [chart_record(parse(tokenize(sentence), lex)) for sentence in sentences]
    monkeypatch.setattr(chart_module, "MAX_SHAPE_TABLE", 150)
    capped, sizes = [], []
    for sentence in sentences:
        capped.append(chart_record(parse(tokenize(sentence), lex)))
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


def test_every_recorded_chart_term_holds_the_record_invariant(chart_of):
    # A record names exactly the variables among the term's subterms; a
    # recorded term's children are recorded, variables or atoms; and no
    # recorded term can be rewritten, so each is canonical.
    for sentence in RECORD_CASES:
        chart, memo, recorded = chart_of(sentence), {}, 0
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


def keying_tallies(sentences, lex, monkeypatch):
    """Parse each sentence with cat_key and the rules wrapped, check the
    keying law on each chart, and return the totals.

    The law: a rule result equal to a category keyed in its cell goes to
    that category's item without a cat_key call; every other result is
    keyed once, and then entered for later lookups whether it made an item
    or was a variant duplicate.  So cat_key runs once per item and once per
    variant duplicate, and a result that was looked up lands on the item
    cat_key would have given it.  Equality is judged by the type-tagged
    oracle, not by the terms' own."""
    calls, results = Counter(), []

    def counted(cat):
        calls["cat_key"] += 1
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
    totals = Counter()
    for sentence in sentences:
        calls.clear()
        results.clear()
        chart = parse(tokenize(sentence), lex)
        made = calls["cat_key"]
        items = chart.items.values()
        by_cat = {id(it.cat): it for it in items}
        # Every lexical entry made an item, so only rule results duplicate.
        lexical = [it for it in items if it.backs[0][0] == "lex"]
        assert sum(back[0] == "lex" for it in items for back in it.backs) == len(lexical)
        keyed = {}     # span -> tagged forms of the categories keyed there
        keys = {}      # span -> their keys
        variants = {}  # span -> tagged forms of its variant duplicates
        for it in lexical:
            keyed.setdefault(it.span, set()).add(tagged_cat(it.cat))
            keys.setdefault(it.span, set()).add(cat_key(it.cat))
        tally = Counter()
        for label, left, right, out in results:
            li, ri = by_cat[id(left)], by_cat[id(right)]
            assert li.cat is left and ri.cat is right
            span, back = (li.span[0], ri.span[1]), (label, li.id, ri.id)
            (item,) = [it for it in chart.cell(*span) if back in it.backs]
            key, form = cat_key(out), tagged_cat(out)
            assert key == cat_key(item.cat), sentence
            if form in keyed.setdefault(span, set()):
                tally["equal"] += 1
                tally["equal to a variant"] += form in variants.get(span, ())
            elif key in keys.setdefault(span, set()):
                tally["variant"] += 1
                variants.setdefault(span, set()).add(form)
            else:
                tally["new"] += 1
            keyed[span].add(form)
            keys[span].add(key)
        assert tally["new"] == len(chart.items) - len(lexical), sentence
        assert made == len(chart.items) + tally["variant"], sentence
        tally.update({"items": len(chart.items), "cat_key calls": made})
        del tally["new"]
        totals.update(tally)
    return dict(totals)


def test_parse_keys_only_new_items_and_variant_duplicates(lex, monkeypatch):
    # Engine facts, pinned on purpose: the items built over KEYING_CASES,
    # and the rule results that duplicate an item, split into those equal
    # to a category already keyed in their cell and the variants of one.
    # None of these sentences gives a result equal to a variant duplicate;
    # the next test does.
    assert keying_tallies(KEYING_CASES, lex, monkeypatch) == {
        "items": 8749, "equal": 7835, "equal to a variant": 0, "variant": 241,
        "cat_key calls": 8990}


def test_a_result_equal_to_a_variant_duplicate_is_looked_up(monkeypatch):
    # In the cell of "x x e", the lexical item np:x(x(e(D))) comes first.
    # x + (x e) then gives a variant of it, with e's variable, and
    # (x x) + e a result equal to that variant, found without a key.
    lex = load_lexicon("x :: np:x(A)/np:A\ne :: np:e(B)\nx x e :: np:x(x(e(D)))\n")
    assert keying_tallies(["x x e"], lex, monkeypatch) == {
        "items": 6, "equal": 1, "equal to a variant": 1, "variant": 1,
        "cat_key calls": 7}
