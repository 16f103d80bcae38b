import random
import warnings

import pytest

from ccgscope import lexicon as lexicon_module
from ccgscope.categories import cat_key, cat_shape, cat_text, parse_cat, subst_cat
from ccgscope.chart import parse
from ccgscope.cli import _corpus_entry, _data_text, read_data, tokenize
from ccgscope.lexicon import (
    LexiconError,
    TypeSet,
    UnknownTokenError,
    _split_top,
    default_lexicon,
    instantiate_raised,
    load_lexicon,
)
from ccgscope.terms import parse_term, unbound_quantifier

from helpers import CHART_FORM_VARIANTS, cat_vars, oracle_load


def keys(entries):
    return [cat_key(e.cat) for e in entries]


def texts(entries):
    return [cat_text(e.cat) for e in entries]


def test_family_over_verb_phrase_type():
    # Hand-expanded family for one determiner over the single type s\np.
    got = keys(instantiate_raised(("every",), "sg", "q-every", "s-every",
                                  TypeSet([parse_cat(r"s\np")])))
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
                                  TypeSet([parse_cat(r"s/(s\np)")])))
    wide_bwd = cat_key(parse_cat(
        r"((s:q-three(V,N,A)/(s:B\np:C))\((s:A/(s:B\np:C))/np:num(V,pl)))/n:V^N"))
    assert wide_bwd == got[-1]


@pytest.mark.parametrize("qsym, ssym, bad", [
    ("qevery", "s-every", "q-symbol"), ("q-", "s-every", "q-symbol"),
    ("s-every", "s-every", "q-symbol"), ("q-e(v)", "s-every", "q-symbol"),
    ("q-every", "severy", "s-symbol"), ("q-every", "s-", "s-symbol"),
    ("q-every", "s-e!v", "s-symbol"), ("q-every", "S-every", "s-symbol")])
def test_raise_refuses_a_symbol_that_is_not_its_prefix_and_a_name(qsym, ssym, bad):
    with pytest.raises(LexiconError, match=f"^{bad} must be "):
        instantiate_raised(("every",), "sg", qsym, ssym, TypeSet([parse_cat(r"s\np")]))


def test_raise_takes_any_name_after_the_prefix():
    for qsym, ssym in (("q-more-than-two", "s-more-than-two"), ("q-a_1?", "s-b")):
        assert len(instantiate_raised(("x",), "pl", qsym, ssym,
                                      TypeSet([parse_cat(r"s\np")]))) == 5


def test_no_wide_entries_for_noun_modifier_type():
    got = keys(instantiate_raised(("three",), "pl", "q-three", "s-three",
                                  TypeSet([parse_cat(r"n\n")])))
    assert len(got) == 3
    assert not any("q-three" in k for k in got)


def test_empty_type_set_gives_plain_entry_only():
    got = keys(instantiate_raised(("five",), "pl", "q-five", "s-five", TypeSet(())))
    assert got == [cat_key(parse_cat("np:num(s-five(N),pl)/n:N"))]


def test_bad_number_rejected():
    with pytest.raises(LexiconError):
        instantiate_raised(("five",), "dual", "q-five", "s-five", TypeSet(()))


def test_non_variable_result_semantics_rejected():
    with pytest.raises(LexiconError):
        instantiate_raised(("x",), "sg", "q-x", "s-x",
                           TypeSet([parse_cat(r"s:and(P,Q)\np:X")]))


def test_default_lexicon_determiner_family_size():
    lex = default_lexicon()
    every = [e for e in lex.entries if e.lexeme == ("every",)]
    # 1 plain + 2 narrow per type (7 types) + 2 wide per s-resulting type (6).
    assert len(every) == 27
    assert len(set(keys(every))) == 27


def test_fresh_renames_looked_up_entries_apart():
    # Copies 0 and 1 of each entry: no variable shared by two copies or by
    # a copy and a written entry, and every copy keyed as its entry's
    # chart form.
    lex = default_lexicon()
    matches = lex.lookup(("every", "girl"), 0)
    copies = [lex.chart_copy(e, n) for n in (0, 1) for e, _ in matches]
    var_sets = [{v.id for v in cat_vars(cat)} for cat in copies]
    written = {v.id for e, _ in matches for v in cat_vars(e.cat)}
    assert all(var_sets) and sum(map(len, var_sets)) == len(set().union(*var_sets))
    assert not written & set().union(*var_sets)
    assert [cat_key(cat) for cat in copies] == [e.chart_key for e, _ in matches] * 2


def test_entries_compile_to_chart_form_once():
    lex = default_lexicon()
    for entry in lex.entries:
        assert entry.chart_key == cat_key(entry.chart_cat)
        assert entry.shape == cat_shape(entry.cat) == cat_shape(entry.chart_cat)
        assert subst_cat({}, entry.chart_cat) is entry.chart_cat
        assert entry.chart_cat is entry.chart_cat
    # Chart form: set forms eta-reduced and and/2 nested to the left; the
    # entry keeps its category as written, and is keyed by its chart form.
    lex = load_lexicon("p :: np:s-a(X^p(X))\nq :: s:and(a, and(b, c))\n")
    assert texts(lex.entries) == ["np:s-a(v1^p(v1))", "s:and(a, and(b, c))"]
    assert [cat_text(e.chart_cat) for e in lex.entries] \
        == ["np:s-a(p)", "s:and(and(a, b), c)"]
    assert [e.chart_key for e in lex.entries] \
        == [cat_key(parse_cat("np:s-a(p)")), cat_key(parse_cat("s:and(and(a, b), c)"))]
    assert all(e.chart_key != cat_key(e.cat) for e in lex.entries)


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
    assert lex.lookup(("zebra",), 0) == []
    assert isinstance(lex.unknown_token(("zebra",), 0), UnknownTokenError)


def test_duplicate_entry_warns_and_keeps_first():
    with pytest.warns(UserWarning) as caught:
        lex = load_lexicon("john :: np:num(john,sg)\njohn :: np:num(john,sg)\n")
    assert len(lex.entries) == 1
    assert [str(w.message) for w in caught] \
        == ["line 2: duplicate lexicon entry for 'john' dropped: np:num(john, sg)"]
    # Entries that differ as written but whose chart forms are variants
    # are one entry to a chart: the later is dropped too.
    for case in ("and/2 nesting", "set form"):
        text, _, _, warning = CHART_FORM_VARIANTS[case]
        with pytest.warns(UserWarning) as caught:
            lex = load_lexicon(text)
        assert [str(w.message) for w in caught] == [warning]
        first = parse_cat(text.split("::")[1].split("\n")[0])
        assert [e.cat for e in lex.entries if e.lexeme == ("x",)] == [first]


def test_variant_types_add_nothing_to_a_family():
    # s:A\np:B is a variant of s\np, n:N\n:M of n\n: the type set keeps
    # the first of each, so the family is that of s\np and n\n.
    def family(types):
        return keys(instantiate_raised(("every",), "sg", "q-every", "s-every",
                                       TypeSet(parse_cat(t) for t in types)))
    assert family([r"s\np", r"s:A\np:B", r"n\n", r"n:N\n:M"]) == family([r"s\np", r"n\n"])
    assert len(family([r"s\np", r"n\n"])) == 1 + 4 + 2
    # A type whose chart form alone is a variant of an earlier one's adds
    # nothing either.
    assert family(["np:and(a, and(b, c))", "np:and(and(a, b), c)", "np:s-a(X^p(X))",
                   "np:s-a(p)"]) == family(["np:and(a, and(b, c))", "np:s-a(X^p(X))"])
    assert len(family(["np:and(a, and(b, c))", "np:s-a(X^p(X))"])) == 1 + 2 + 2


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
    assert texts(lex.entries) == ["np:a/n:v1", "np:b/n:v1", "np:v1/n:v2"]


def test_entries_that_differ_only_in_a_lambda_parameter_are_both_kept():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lex = load_lexicon("x :: np:X/n:X^p(X)\nx :: np:Y/n:X^p(X)\n")
    assert texts(lex.entries) == ["np:v1/n:v1^p(v1)", "np:v1/n:v2^p(v2)"]


def test_wide_determiner_key_shows_the_noun_variable_as_the_quantifier_variable():
    every = texts(e for e in default_lexicon().entries if e.lexeme == ("every",))
    wide = [k for k in every if "q-every" in k]
    assert wide and all(k.endswith("/n:v1^v2") for k in wide)
    assert r"(s:q-every(v1, v2, v3)/(s:v3\np:num(v1, sg)))/n:v1^v2" in wide


def test_ill_formed_written_category_is_refused_with_its_line():
    with pytest.raises(LexiconError,
                       match="^line 2: quantifier q-every binds the non-variable j$"):
        load_lexicon("john :: np:num(john,sg)\n"
                     "x :: s:q-every(j, girl(j), smiled(j))\n")
    with pytest.raises(LexiconError, match="^line 1: quantifier q-a binds"):
        load_lexicon("@tset s, s:q-a(b, c, P)\\np\n")
    # A quantifier over a variable, at any depth, is fine.
    load_lexicon("x :: s:think(up(q-a(X, c(X), d(X))), j)\n@tset s:q-a(Y, c(Y), P)\\np\n")


def test_only_a_category_whose_text_spells_q_is_walked_for_quantifiers(monkeypatch):
    # A quantifier's functor is read verbatim from the category's text, so
    # a text without "q-" holds none: the bundled lexicon, whose only q-
    # symbols stand in @raise lines, has no category walked at load.  The
    # ill-formed lines are refused as before, with the same message.
    walked = []

    def counted(t):
        walked.append(t)
        return unbound_quantifier(t)
    monkeypatch.setattr(lexicon_module, "unbound_quantifier", counted)
    assert len(default_lexicon().entries) == 431
    assert walked == []
    for text, line in [("x :: s:q-every(j, girl(j), smiled(j))\n", 1),
                       ("x :: s:ok\n@tset s\\np, s:f(q-every(j, girl(j), P))\\np\n", 2)]:
        with pytest.raises(LexiconError) as caught:
            load_lexicon(text)
        assert str(caught.value) == f"line {line}: quantifier q-every binds the non-variable j"
    walked.clear()
    load_lexicon("x :: s:think(up(q-a(X, c(X), d(X))), j)\ny :: s:ok\n")
    assert walked == [parse_term("think(up(q-a(X, c(X), d(X))), j)")]


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


def test_default_lexicon_reads_each_text_once_and_walks_no_family(monkeypatch):
    # Structural gate on the load's cost.  parse_cat runs once per
    # distinct category text of the :: and @tset lines, counted here from
    # the file (its @tset line holds no comma inside parentheses): lines
    # with equal text, such as girl and girls, share one category.  And no
    # @raise entry is walked for its shape, at load or in a parse of a
    # corpus sentence: each family is born with its shapes.
    texts, raised = set(), set()
    for raw in _data_text("fragment.lex").splitlines():
        line = raw.split("#", 1)[0].strip()
        if line.startswith("@tset"):
            texts.update(part.strip() for part in line[len("@tset"):].split(","))
        elif line.startswith("@raise"):
            raised.add(tuple(line.split()[1:-3]))
        elif "::" in line:
            texts.add(line.split("::", 1)[1].strip())
    read, walked = [], []

    def counted_parse(text):
        read.append(text)
        return parse_cat(text)

    def counted_shape(cat):
        walked.append(cat)
        return cat_shape(cat)
    monkeypatch.setattr(lexicon_module, "parse_cat", counted_parse)
    monkeypatch.setattr(lexicon_module, "cat_shape", counted_shape)
    lex = default_lexicon()
    assert len(read) == len(texts) == 66
    assert set(read) == texts
    for _, sentence, _, _ in read_data("corpus.txt", None, _corpus_entry):
        parse(tokenize(sentence), lex)
    family_cats = {id(e.cat) for e in lex.entries if e.lexeme in raised}
    assert len(family_cats) == 13 * 27  # 13 @raise lines, 27 entries each
    assert walked and not any(id(cat) in family_cats for cat in walked)


def entry_rows(entries):
    return [(e.lexeme, e.chart_key, e.tag, e.cat, e.chart_cat, e.shape) for e in entries]


def test_load_agrees_with_entry_by_entry_oracle_on_the_bundled_lexicon():
    entries, warned = oracle_load(_data_text("fragment.lex"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lex = default_lexicon()
    assert warned == []
    assert entry_rows(lex.entries) == entry_rows(entries)
    # The shapes a family is born with are the ones its categories spell.
    assert all(e.shape == cat_shape(e.cat) for e in lex.entries + entries)


# Pools for generated lexicons: variant and duplicate types (s:A\np:B is
# s\np, n:N\n:M is n\n), types and written entries whose chart forms
# alone are variants, determiners of one and two words, and written
# entries that equal raised ones, share a lexeme and a shape, or share
# their text with another lexeme's.
GEN_TYPES = [r"s", r"s\np", r"s:A\np:B", r"s/np", r"(s\np)/np", r"(s:S\np:X)/np:Y",
             r"s/(s\np)", r"n\n", r"n:N\n:M", r"s:P\np:num(X,sg)",
             r"n:and(a,and(b,c))\n", r"n:and(and(a,b),c)\n"]
GEN_RAISES = ["every sg q-every s-every", "most pl q-most s-most",
              "a few pl q-few s-few", "few pl q-few s-few"]
GEN_WRITTEN = ["every :: np:num(s-every(N),sg)/n:N",
               r"every :: ((s:A\np:B)/((s:A\np:B)\np:num(s-every(N),sg)))/n:N",
               r"most :: ((s:q-most(V,N,A)\np:B)/((s:A\np:B)\np:num(V,pl)))/n:V^N",
               "a few :: n:X^few(X)", "x :: np:a", "x :: np:b", "x :: np:A",
               "x :: np:B", "x :: s:ok/np:N", "x :: s:ok/np:M",
               "x :: np:and(a,and(b,c))", "x :: np:and(and(a,b),c)",
               "x :: np:s-a(X^p(X))", "x :: np:s-a(p)", "y :: np:a",
               "few :: n:X^few(X)"]


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
    written = {cat_text(parse_cat(line.split("::")[1])) for line in lines if "::" in line}
    x_shapes = [e.shape for e in entries if e.lexeme == ("x",)]
    x_written = {parse_cat(line.split("::")[1]) for line in lines if line.startswith("x ::")}
    declared = [tuple(part.strip() for part in line.split("::")) for line in lines if "::" in line]

    def chart_form_variants(cats):
        return len({cat_key(subst_cat({}, c)) for c in cats}) \
            < len({cat_key(c) for c in cats})
    return {case for case, hit in [
        ("variant types", any(len({cat_key(parse_cat(t)) for t in ts}) < len(set(ts))
                              for ts in tsets)),
        ("chart form variant types", any(chart_form_variants([parse_cat(t) for t in ts])
                                         for ts in tsets)),
        ("chart form variant entries", chart_form_variants(x_written)),
        ("repeated raise", len(set(raises)) < len(raises)),
        ("written equals raised", any(
            lines[int(w.split(":")[0][len("line "):]) - 1].startswith("@raise")
            and w.split("dropped: ")[1] in written for w in warned)),
        ("equal shapes", len(set(x_shapes)) < len(x_shapes)),
        ("shared text", len({text for _, text in declared}) < len(set(declared))),
        ("repeated text", len(set(declared)) < len(declared))] if hit}


def test_load_agrees_with_entry_by_entry_oracle_on_generated_lexicons():
    covered = set()
    for seed in range(60):
        text = generated_lexicon(seed)
        entries, warned = oracle_load(text)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            lex = load_lexicon(text)
        assert entry_rows(lex.entries) == entry_rows(entries), text
        assert all(e.shape == cat_shape(e.cat) for e in lex.entries + entries), text
        assert [str(w.message) for w in caught] == warned, text
        covered |= covered_cases(text, entries, warned)
    assert covered == {"variant types", "chart form variant types",
                       "chart form variant entries", "repeated raise",
                       "written equals raised", "equal shapes", "shared text",
                       "repeated text"}


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
