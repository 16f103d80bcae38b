import itertools

import pytest

from ccgscope.categories import (
    Atomic,
    CatError,
    Slash,
    atomics,
    canonical_cat,
    cat_key,
    cat_vars,
    format_cat,
    parse_cat,
    replace_result_sem,
    result_atomic,
    standardize_apart,
    subst_cat,
    unify_cat,
)
from ccgscope.chart import parse
from ccgscope.cli import tokenize
from ccgscope.lexicon import default_lexicon
from ccgscope.terms import Var, parse_term


def test_parse_atomic_with_and_without_sem():
    assert parse_cat("np:john") == Atomic("np", parse_term("john"))
    assert parse_cat("s") == Atomic("s", Var("V1"))
    assert parse_cat("sbar:S") == Atomic("sbar", Var("S"))


def test_parse_left_associative():
    assert parse_cat("s\\np/np") == parse_cat("(s\\np)/np")
    assert parse_cat("s\\np/np") != parse_cat("s\\(np/np)")


def test_parse_fresh_vars_left_to_right():
    cat = parse_cat("(s\\np)/np")
    assert [a.sem for a in atomics(cat)] == [Var("V1"), Var("V2"), Var("V3")]
    # Explicit names are never shadowed by the generated ones.
    cat = parse_cat("s:V1\\np")
    assert [a.sem for a in atomics(cat)] == [Var("V1"), Var("V2")]


def test_parse_complex_entry():
    text = "((s:and(P, Q)/np:X)\\(s:P/np:X))/(s:Q/np:X)"
    cat = parse_cat(text)
    assert format_cat(cat) == text
    assert isinstance(cat, Slash) and cat.dir == "/"


def test_parse_errors_report_position():
    with pytest.raises(CatError) as e:
        parse_cat("s/(vp\\np)")
    assert "position 3" in str(e.value)
    with pytest.raises(CatError):
        parse_cat("(s\\np):X")
    with pytest.raises(CatError):
        parse_cat("s\\np)")
    with pytest.raises(CatError):
        parse_cat("s/")


def test_format_full_parens():
    assert format_cat(parse_cat("s/(s\\np)")) == "s:V1/(s:V2\\np:V3)"
    assert format_cat(parse_cat("s\\np/np"), with_sems=False) == "(s\\np)/np"


def test_unify_cat_application_step():
    fn = parse_cat("(s:visited(X, Y)\\np:X)/np:Y")
    arg = parse_cat("np:s-five(russian)")
    s = unify_cat(fn.arg, arg)
    assert subst_cat(s, fn.result) == parse_cat("s:visited(X, s-five(russian))\\np:X")


def test_unify_cat_shape_strict():
    assert unify_cat(parse_cat("np:X"), parse_cat("n:X")) is None
    assert unify_cat(parse_cat("s/np"), parse_cat("s\\np")) is None
    assert unify_cat(parse_cat("s/np"), parse_cat("s")) is None
    assert unify_cat(parse_cat("s:p(X)"), parse_cat("s:q(X)")) is None


def test_result_atomic_and_replace():
    cat = parse_cat("(s:S/np:W)/np:V")
    assert result_atomic(cat) == Atomic("s", Var("S"))
    got = replace_result_sem(cat, parse_term("q-most(V, N, S)"))
    assert got == parse_cat("(s:q-most(V, N, S)/np:W)/np:V")


def test_standardize_apart_disjoint():
    counter = itertools.count(1)
    cat = parse_cat("(s:S\\np:X)/np:Y")
    a = standardize_apart(cat, counter)
    b = standardize_apart(cat, counter)
    assert set(cat_vars(a)).isdisjoint(cat_vars(b))
    assert cat_key(a) == cat_key(b) == cat_key(cat)


def test_cat_key_variant_equivalence():
    a = parse_cat("(s:P\\np:X)/np:Y")
    b = parse_cat("(s:Q\\np:A)/np:B")
    c = parse_cat("(s:Q\\np:A)/np:A")
    assert cat_key(a) == cat_key(b)
    assert cat_key(a) != cat_key(c)
    assert cat_key(a) == "(s:v1\\np:v2)/np:v3"


def test_canonical_cat_shares_renamer_across_atoms():
    cat = parse_cat("(s:saw(X, Y)\\np:X)/np:Y")
    assert format_cat(canonical_cat(cat)) == "(s:saw(v1, v2)\\np:v1)/np:v2"


def test_cat_key_equals_printed_canonical_copy():
    # cat_key prints canonical names in one pass; the two-step form it
    # replaces is the reference.
    lex = default_lexicon()
    cats = [e.cat for e in lex.entries]
    chart = parse(tokenize("every girl admired, but most boys detested,"
                           " one of the saxophonists"), lex)
    cats += [it.cat for it in chart.items.values()]
    assert len(cats) > 600
    counter = itertools.count(1)
    for cat in cats:
        key = cat_key(cat)
        assert key == format_cat(canonical_cat(cat))
        assert cat_key(standardize_apart(cat, counter)) == key
