import pytest

from ccgscope.categories import cat_key, cat_shape, cat_vars, parse_cat, subst_cat
from ccgscope.lexicon import (
    LexiconError,
    UnknownTokenError,
    default_lexicon,
    instantiate_raised,
    load_lexicon,
)


def keys(entries):
    return [cat_key(e.cat) for e in entries]


def test_family_over_verb_phrase_type():
    # Hand-expanded family for one determiner over the single type s\np.
    got = keys(instantiate_raised(("every",), "sg", "q-every", "s-every",
                                  [parse_cat(r"s\np")]))
    want = [
        "np:num(s-every(N),sg)/n:N",
        r"((s:A\np:B)/((s:A\np:B)\np:num(s-every(N),sg)))/n:N",
        r"((s:A\np:B)\((s:A\np:B)/np:num(s-every(N),sg)))/n:N",
        r"((s:q-every(V,N,A)\np:B)/((s:A\np:B)\np:num(V,sg)))/n:V^N",
        r"((s:q-every(V,N,A)\np:B)\((s:A\np:B)/np:num(V,sg)))/n:V^N",
    ]
    assert got == [cat_key(parse_cat(w)) for w in want]


def test_wide_backward_over_raised_subject_type():
    got = keys(instantiate_raised(("three",), "pl", "q-three", "s-three",
                                  [parse_cat(r"s/(s\np)")]))
    wide_bwd = cat_key(parse_cat(
        r"((s:q-three(V,N,A)/(s:B\np:C))\((s:A/(s:B\np:C))/np:num(V,pl)))/n:V^N"))
    assert wide_bwd == got[-1]


def test_no_wide_entries_for_noun_modifier_type():
    got = keys(instantiate_raised(("three",), "pl", "q-three", "s-three",
                                  [parse_cat(r"n\n")]))
    assert len(got) == 3
    assert not any("q-three" in k for k in got)


def test_empty_type_set_gives_plain_entry_only():
    got = keys(instantiate_raised(("five",), "pl", "q-five", "s-five", []))
    assert got == [cat_key(parse_cat("np:num(s-five(N),pl)/n:N"))]


def test_bad_number_rejected():
    with pytest.raises(LexiconError):
        instantiate_raised(("five",), "dual", "q-five", "s-five", [])


def test_non_variable_result_semantics_rejected():
    with pytest.raises(LexiconError):
        instantiate_raised(("x",), "sg", "q-x", "s-x",
                           [parse_cat(r"s:and(P,Q)\np:X")])


def test_default_lexicon_determiner_family_size():
    lex = default_lexicon()
    every = [e for e in lex.entries if e.lexeme == ("every",)]
    # 1 plain + 2 narrow per type (7 types) + 2 wide per s-resulting type (6).
    assert len(every) == 27
    assert len(set(keys(every))) == 27


def test_fresh_renames_looked_up_entries_apart():
    lex = default_lexicon()
    matches = lex.lookup(("every", "girl"), 0)
    first = [lex.fresh(e.cat) for e, _ in matches]
    second = [lex.fresh(e.cat) for e, _ in matches]
    vs1 = {v.id for cat in first for v in cat_vars(cat)}
    vs2 = {v.id for cat in second for v in cat_vars(cat)}
    vs0 = {v.id for e, _ in matches for v in cat_vars(e.cat)}
    assert vs1 and vs2 and not (vs1 & vs2) and not (vs0 & (vs1 | vs2))
    assert [cat_key(cat) for cat in first] == [e.key for e, _ in matches]


def test_entries_compile_to_chart_form_once():
    lex = default_lexicon()
    for entry in lex.entries:
        assert entry.key == cat_key(entry.cat)
        assert entry.shape == cat_shape(entry.cat) == cat_shape(entry.chart_cat)
        assert subst_cat({}, entry.chart_cat) is entry.chart_cat
        assert entry.chart_cat is entry.chart_cat
    # Chart form: set forms eta-reduced and and/2 nested to the left; the
    # entry keeps its category as written.
    lex = load_lexicon("p :: np:s-a(X^p(X))\nq :: s:and(a, and(b, c))\n")
    assert keys(lex.entries) == ["np:s-a(v1^p(v1))", "s:and(a, and(b, c))"]
    assert [cat_key(e.chart_cat) for e in lex.entries] \
        == ["np:s-a(p)", "s:and(and(a, b), c)"]


def test_multiword_lookup_consumes_whole_lexeme():
    lex = default_lexicon()
    matches = lex.lookup(("at", "most", "three", "cars"), 0)
    assert matches and all(k == 3 for _, k in matches)
    assert all(e.tag == "at most three" for e, _ in matches)
    # The embedded word still has its own entries one position later.
    assert all(k == 1 for _, k in lex.lookup(("at", "most", "three"), 1))


def test_two_token_verb_lookup():
    lex = default_lexicon()
    matches = lex.lookup(("danced", "with", "two", "women"), 0)
    assert [(e.tag, k) for e, k in matches] == [("danced with", 2)]


def test_comma_lookup_covers_coordinator_and_bare_comma():
    lex = default_lexicon()
    matches = lex.lookup((",", "but", "most"), 0)
    consumed = sorted(k for _, k in matches)
    assert 1 in consumed and 2 in consumed
    # Standalone comma (closing a conjunct) only matches the bare entry.
    assert all(k == 1 for _, k in lex.lookup((",", "every"), 0))


def test_unknown_token():
    lex = default_lexicon()
    with pytest.raises(UnknownTokenError):
        lex.lookup(("zebra",), 0)


def test_duplicate_entry_warns_and_keeps_first():
    with pytest.warns(UserWarning):
        lex = load_lexicon("john :: np:num(john,sg)\njohn :: np:num(john,sg)\n")
    assert len(lex.entries) == 1


def test_error_reports_line_number():
    with pytest.raises(LexiconError, match="line 2"):
        load_lexicon("john :: np:num(john,sg)\ngirl ::\n")
    with pytest.raises(LexiconError, match="line 1"):
        load_lexicon("@raise x q-x s-x\n")


def test_empty_text_gives_empty_lexicon():
    assert load_lexicon("# nothing here\n").entries == []


def test_raise_uses_last_type_set():
    text = "@raise two pl q-two s-two\n@tset s\\np\n"
    lex = load_lexicon(text)
    assert len([e for e in lex.entries if e.lexeme == ("two",)]) == 5
