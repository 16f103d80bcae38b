import pytest

from ccgscope import chart as chart_module
from ccgscope.categories import cat_key, format_cat, canonical_cat, map_sems, parse_cat
from ccgscope.chart import (
    RULES,
    Chart,
    ChartError,
    Item,
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
from ccgscope.lexicon import UnknownTokenError, default_lexicon
from ccgscope.terms import eta_reduce_sets

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
    "three frenchmen visited five russians": (122, 5, 130, 15),
    "two representatives of three companies saw most samples": (253, 11, 304, 114),
    "every dealer shows most customers three cars": (214, 12, 249, 83),
    "most boys think that every man danced with two women": (232, 16, 287, 207),
    "john thinks that every man danced with two women": (156, 7, 182, 49),
    "most boys think that bill danced with two women": (128, 4, 131, 9),
    "every girl admired, but most boys detested, one of the saxophonists":
        (233, 8, 245, 20),
    "most boys think that every man danced with, but doubt that a few boys"
    " talked to, more than two women": (412, 20, 470, 756),
    "some student will investigate two dialects of, and collect all interesting"
    " examples of coordination in, every language": (330, 5, 375, 88),
    "every dealer shows most customers at most three cars but most mechanics"
    " every car": (468, 18, 512, 27),
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


def all_pairs_parse(tokens, lex):
    """Oracle: closure that tries every rule on every pair of adjacent
    items and rewrites every result into canonical form itself."""
    n = len(tokens)
    chart = Chart(tuple(tokens), {}, {})

    def add(span, cat, back):
        cat = map_sems(cat, eta_reduce_sets)
        cell = chart.cells.setdefault(span, {})
        key = cat_key(cat)
        item = cell.get(key)
        if item is None:
            item = Item(len(chart.items) + 1, span, cat, [back])
            chart.items[item.id] = item
            cell[key] = item
        elif back not in item.backs:
            item.backs.append(back)

    for i in range(n):
        try:
            matches = lex.lookup(tokens, i)
        except UnknownTokenError:  # inside a multi-word lexeme
            continue
        for entry, k in matches:
            add((i, i + k), entry.cat, ("lex", entry.tag))
    for width in range(2, n + 1):
        for i in range(0, n - width + 1):
            j = i + width
            for k in range(i + 1, j):
                for lit in chart.cells.get((i, k), {}).values():
                    for rit in chart.cells.get((k, j), {}).values():
                        for label, rule in RULES:
                            out = rule(lit.cat, rit.cat)
                            if out is not None:
                                add((i, j), out, (label, lit.id, rit.id))
    return chart


def item_sequence(chart):
    return [(it.id, it.span, cat_key(it.cat), it.backs) for it in chart.items.values()]


CLOSURE_CASES = [sent for _, sent, _, _ in read_data("corpus.txt", None, _corpus_entry)] \
    + [coordination_sentence(case) for case in (1, 2, 3, 4, "rnr")] + [PP_CHAIN_3[0]]


@pytest.mark.parametrize("sentence", CLOSURE_CASES)
def test_shape_paired_closure_builds_the_all_pairs_chart(lex, sentence):
    tokens = tokenize(sentence)
    assert item_sequence(parse(tokens, lex)) == item_sequence(all_pairs_parse(tokens, lex))
