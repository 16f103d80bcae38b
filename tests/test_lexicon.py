import random
import warnings

import pytest

from ccgscope import lexicon as lexicon_module
from ccgscope.categories import cat_key, cat_shape, cat_vars, parse_cat, subst_cat
from ccgscope.cli import _data_text
from ccgscope.lexicon import (
    LexiconError,
    UnknownTokenError,
    _split_top,
    default_lexicon,
    instantiate_raised,
    load_lexicon,
)

from helpers import oracle_load


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
    with pytest.warns(UserWarning) as caught:
        lex = load_lexicon("john :: np:num(john,sg)\njohn :: np:num(john,sg)\n")
    assert len(lex.entries) == 1
    assert [str(w.message) for w in caught] \
        == ["line 2: duplicate lexicon entry for 'john' dropped: np:num(john, sg)"]


def test_variant_types_add_nothing_to_a_family():
    # s:A\np:B is a variant of s\np, n:N\n:M of n\n: the type set keeps
    # the first of each, so the family is that of s\np and n\n.
    def family(types):
        return keys(instantiate_raised(("every",), "sg", "q-every", "s-every",
                                       [parse_cat(t) for t in types]))
    assert family([r"s\np", r"s:A\np:B", r"n\n", r"n:N\n:M"]) == family([r"s\np", r"n\n"])
    assert len(family([r"s\np", r"n\n"])) == 1 + 4 + 2


def test_raised_entry_equal_to_a_written_one_is_dropped_with_its_line():
    text = ("@tset s\\np\n"
            "every :: np:num(s-every(N),sg)/n:N\n"
            "@raise every sg q-every s-every\n")
    with pytest.warns(UserWarning) as caught:
        lex = load_lexicon(text)
    assert len(lex.entries) == 5
    assert [str(w.message) for w in caught] == [
        "line 3: duplicate lexicon entry for 'every' dropped: np:num(s-every(v1), sg)/n:v1"]


def test_one_lexeme_twice_with_equal_shapes_keeps_both_non_variants():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lex = load_lexicon("x :: np:a/n:N\nx :: np:b/n:N\nx :: np:A/n:B\n")
    assert keys(lex.entries) == ["np:a/n:v1", "np:b/n:v1", "np:v1/n:v2"]


def test_ill_formed_written_category_is_refused_with_its_line():
    with pytest.raises(LexiconError,
                       match="^line 2: quantifier q-every binds the non-variable j$"):
        load_lexicon("john :: np:num(john,sg)\n"
                     "x :: s:q-every(j, girl(j), smiled(j))\n")
    with pytest.raises(LexiconError, match="^line 1: quantifier q-a binds"):
        load_lexicon("@tset s, s:q-a(b, c, P)\\np\n")
    # A quantifier over a variable, at any depth, is fine.
    load_lexicon("x :: s:think(up(q-a(X, c(X), d(X))), j)\n@tset s:q-a(Y, c(Y), P)\\np\n")


def test_type_set_error_keeps_the_line_of_the_first_raise():
    text = ("@tset s:and(P,Q)\\np\n"
            "@raise every sg q-every s-every\n"
            "@raise most pl q-most s-most\n")
    with pytest.raises(LexiconError, match="^line 2: type set entry"):
        load_lexicon(text)


def test_default_lexicon_keys_only_its_types(monkeypatch):
    # Structural gate on the load's cost.  One key per @tset type, to
    # deduplicate the type set (7 types); none per entry: no family is
    # keyed, and no lexeme is declared twice with entries of one shape
    # (each noun's two entries are n and n/(n\n)).
    calls = []

    def counted(cat):
        calls.append(cat)
        return cat_key(cat)
    monkeypatch.setattr(lexicon_module, "cat_key", counted)
    assert len(default_lexicon().entries) == 431
    assert len(calls) == 7


def entry_rows(entries):
    return [(e.lexeme, e.key, e.tag, e.cat, e.chart_cat) for e in entries]


def test_load_agrees_with_entry_by_entry_oracle_on_the_bundled_lexicon():
    entries, warned = oracle_load(_data_text("fragment.lex"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lex = default_lexicon()
    assert warned == []
    assert entry_rows(lex.entries) == entry_rows(entries)


# Pools for generated lexicons: variant and duplicate types (s:A\np:B is
# s\np, n:N\n:M is n\n), determiners of one and two words, and written
# entries that equal raised ones or share a lexeme and a shape.
GEN_TYPES = [r"s", r"s\np", r"s:A\np:B", r"s/np", r"(s\np)/np", r"(s:S\np:X)/np:Y",
             r"s/(s\np)", r"n\n", r"n:N\n:M", r"s:P\np:num(X,sg)"]
GEN_RAISES = ["every sg q-every s-every", "most pl q-most s-most",
              "a few pl q-few s-few", "few pl q-few s-few"]
GEN_WRITTEN = ["every :: np:num(s-every(N),sg)/n:N",
               r"every :: ((s:A\np:B)/((s:A\np:B)\np:num(s-every(N),sg)))/n:N",
               r"most :: ((s:q-most(V,N,A)\np:B)/((s:A\np:B)\np:num(V,pl)))/n:V^N",
               "a few :: n:X^few(X)", "x :: np:a", "x :: np:b", "x :: np:A",
               "x :: np:B", "x :: s:ok/np:N", "x :: s:ok/np:M"]


def generated_lexicon(seed):
    rng = random.Random(seed)
    lines = [f"@tset {', '.join(rng.choices(GEN_TYPES, k=rng.randrange(8)))}"
             for _ in range(rng.randrange(1, 3))]
    lines += [f"@raise {r}" for r in rng.choices(GEN_RAISES, k=rng.randrange(1, 5))]
    lines += rng.choices(GEN_WRITTEN, k=rng.randrange(6))
    rng.shuffle(lines)
    return "\n".join(lines) + "\n"


def covered_cases(text, entries, warned):
    """Which of the cases the generated lexicons must cover this one has."""
    lines = text.splitlines()
    tsets = [_split_top(line[len("@tset"):]) for line in lines if line.startswith("@tset")]
    raises = [line for line in lines if line.startswith("@raise")]
    written = {cat_key(parse_cat(line.split("::")[1])) for line in lines if "::" in line}
    x_shapes = [e.shape for e in entries if e.lexeme == ("x",)]
    return {case for case, hit in [
        ("variant types", any(len({cat_key(parse_cat(t)) for t in ts}) < len(set(ts))
                              for ts in tsets)),
        ("repeated raise", len(set(raises)) < len(raises)),
        ("written equals raised", any(
            lines[int(w.split(":")[0][len("line "):]) - 1].startswith("@raise")
            and w.split("dropped: ")[1] in written for w in warned)),
        ("equal shapes", len(set(x_shapes)) < len(x_shapes))] if hit}


def test_load_agrees_with_entry_by_entry_oracle_on_generated_lexicons():
    covered = set()
    for seed in range(60):
        text = generated_lexicon(seed)
        entries, warned = oracle_load(text)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            lex = load_lexicon(text)
        assert entry_rows(lex.entries) == entry_rows(entries), text
        assert [str(w.message) for w in caught] == warned, text
        covered |= covered_cases(text, entries, warned)
    assert covered == {"variant types", "repeated raise", "written equals raised",
                       "equal shapes"}


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
