import itertools
import random

import pytest

from ccgscope import chart as chart_module
from ccgscope.categories import (
    Atomic,
    CatError,
    Slash,
    atomics,
    canonical_cat,
    cat_key,
    cat_shape,
    cat_text,
    format_cat,
    map_sems,
    parse_cat,
    replace_result_sem,
    result_atomic,
    standardize_apart,
    subst_cat,
    unify_cat,
)
from ccgscope.cli import _corpus_entry, read_data, tokenize
from ccgscope.lexicon import default_lexicon
from ccgscope.terms import (
    Atom,
    Compound,
    Lam,
    QuantifierSlotError,
    TermError,
    Up,
    Var,
    apply,
    children,
    eta_reduce_sets,
    is_and,
    occurs,
    parse_term,
    unify,
    with_children,
)

from helpers import all_pairs_parse, cat_vars, tagged_cat, unrecorded, walk, well_formed
from test_coordination import sentence as coordination_sentence
from test_terms import rand_lf, rand_term


def test_parse_atomic_with_and_without_sem():
    assert parse_cat("np:john") == Atomic("np", parse_term("john"))
    assert parse_cat("s") == Atomic("s", Var("V'1"))
    assert parse_cat("sbar:S") == Atomic("sbar", Var("S"))


def test_parse_left_associative():
    assert parse_cat("s\\np/np") == parse_cat("(s\\np)/np")
    assert parse_cat("s\\np/np") != parse_cat("s\\(np/np)")


def test_parse_fresh_vars_left_to_right():
    cat = parse_cat("(s\\np)/np")
    assert [a.sem for a in atomics(cat)] == [Var("V'1"), Var("V'2"), Var("V'3")]
    # A written V1 stays V1 beside a blank's V'1, which no text spells.
    cat = parse_cat("s:V1\\np")
    assert [a.sem for a in atomics(cat)] == [Var("V1"), Var("V'1")]


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
    assert format_cat(parse_cat("s/(s\\np)")) == "s:V'1/(s:V'2\\np:V'3)"
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


def test_cat_shape_drops_terms_only():
    assert cat_shape(parse_cat("(s:saw(X, Y)\\np:X)/np:Y")) \
        == ("/", ("\\", "s", "np"), "np")
    assert cat_shape(parse_cat("np:john")) == "np"
    assert cat_shape(parse_cat("s/(s\\np)")) != cat_shape(parse_cat("(s/s)\\np"))


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
    assert cat_text(a) == "(s:v1\\np:v2)/np:v3"


def test_cat_key_names_a_lambda_parameter_as_any_variable():
    # The noun's parameter is the quantifier's variable in the first
    # category, and unrelated to it in the second: they are not variants.
    a = parse_cat("np:X/n:X^p(X)")
    b = parse_cat("np:Y/n:X^p(X)")
    assert cat_text(a) == "np:v1/n:v1^p(v1)"
    assert cat_text(b) == "np:v1/n:v2^p(v2)"


def rand_cat(rng, depth, pool, functors):
    if depth == 0 or rng.random() < 0.4:
        return Atomic(rng.choice(("s", "np")), rand_term(rng, 2, pool, functors))
    return Slash(rng.choice("/\\"), rand_cat(rng, depth - 1, pool, functors),
                 rand_cat(rng, depth - 1, pool, functors))


def test_cat_key_is_equal_exactly_for_variants():
    # The oracle: two categories are variants iff their canonical copies
    # have equal tagged forms.  The draws are small, so many of them are
    # variants of an earlier one without being equal to it; names are
    # drawn to collide with a canonical variable (v1), a sort (np) and
    # up(.), so many also print like an earlier draw that is no variant.
    rng = random.Random(20261019)
    pool, functors = ["X", "Y", "v1"], ("f", "np", "up", "v1")
    counter = itertools.count(1)
    first, by_form, by_text = {}, {}, {}
    tallies = {"variants": 0, "printed alike": 0}
    for _ in range(3000):
        cat = rand_cat(rng, 2, pool, functors)
        key, form, text = cat_key(cat), tagged_cat(canonical_cat(cat)), cat_text(cat)
        seen = first.setdefault(key, (cat, form))
        assert seen[1] == form, (seen[0], cat)
        assert by_form.setdefault(form, key) == key
        assert cat_key(standardize_apart(cat, counter)) == key
        tallies["variants"] += seen[0] != cat
        tallies["printed alike"] += by_text.setdefault(text, key) != key
    assert tallies["variants"] > 200 and tallies["printed alike"] > 20, tallies


@pytest.mark.parametrize("a, b", [
    (Atomic("s", parse_term("g(f(a), b)")), Atomic("s", parse_term("g(f(a, b))"))),
    (Atomic("s", Atom("up")), Atomic("s", Up(Var("X")))),
    (Atomic("s", Compound("up", (Var("X"),))), Atomic("s", Up(Var("X")))),
    (Atomic("s", Atom("v1")), Atomic("s", Var("X"))),
    (parse_cat("s:np(n)/n:X"), parse_cat("s:np/n:n(X)")),
    (parse_cat("np:X/n:X^p(X)"), parse_cat("np:Y/n:X^p(X)")),
], ids=["arity", "atom-up", "compound-up", "atom-v1", "functor-np", "lambda-param"])
def test_cat_key_tells_apart_categories_that_are_not_variants(a, b):
    assert tagged_cat(canonical_cat(a)) != tagged_cat(canonical_cat(b))
    assert cat_key(a) != cat_key(b)


def test_canonical_cat_shares_renamer_across_atoms():
    cat = parse_cat("(s:saw(X, Y)\\np:X)/np:Y")
    assert format_cat(canonical_cat(cat)) == "(s:saw(v1, v2)\\np:v1)/np:v2"


def test_cat_text_equals_printed_canonical_copy():
    # cat_text prints canonical names in one pass; the two-step form it
    # replaces is the reference.  The all-pairs chart supplies inputs: it
    # holds every category closure can build, pruned or not.
    lex = default_lexicon()
    cats = [e.cat for e in lex.entries]
    chart = all_pairs_parse(tokenize("every girl admired, but most boys detested,"
                                     " one of the saxophonists"), lex)
    cats += [it.cat for it in chart.items.values()]
    assert len(cats) > 600
    counter = itertools.count(1)
    for cat in cats:
        text = cat_text(cat)
        assert text == format_cat(canonical_cat(cat))
        assert cat_text(standardize_apart(cat, counter)) == text


def two_pass_standardize_apart(cat, counter):
    # Oracle: collect the variables first, then rename.
    mapping = {v: Var(f"{v.id}_{next(counter)}") for v in cat_vars(cat)}

    def ren(t):
        if isinstance(t, Var):
            return mapping.get(t, t)
        return with_children(t, [ren(k) for k in children(t)])

    return map_sems(cat, ren)


def test_standardize_apart_names_as_two_passes_would():
    lex = default_lexicon()
    ours, theirs = itertools.count(1), itertools.count(1)
    for entry in lex.entries:
        got = standardize_apart(entry.cat, ours)
        assert got == two_pass_standardize_apart(entry.cat, theirs)
    assert next(ours) == next(theirs)


# --- subst_cat: one walk for substitution and canonical form --------------------


def rewrite_pass(term):
    # Oracle: the canonical rewrites as a separate pass over an applied
    # term, rebuilding bottom-up.
    if isinstance(term, (Var, Atom)):
        return term
    term = with_children(term, [rewrite_pass(k) for k in children(term)])
    if is_and(term) and is_and(term.args[1]):
        right, tail = term.args[1], []
        while is_and(right):
            tail.append(right.args[1])
            right = right.args[0]
        term = Compound("and", (term.args[0], right))
        for conjunct in reversed(tail):
            term = Compound("and", (term, conjunct))
        return term
    if (isinstance(term, Compound) and term.functor.startswith("s-")
            and len(term.args) == 1 and isinstance(term.args[0], Lam)):
        lam = term.args[0]
        if isinstance(lam.body, Compound) and lam.body.args == (lam.param,):
            return Compound(term.functor, (Atom(lam.body.functor),))
    return term


def well_formed_cat(cat):
    return all(well_formed(at.sem) for at in atomics(cat))


def agrees_with_oracle(s, cat):
    """Compare subst_cat with the oracle, TermError included.  Returns
    "raised" when both raised, "pruned" when subst_cat refused a
    quantifier over a non-variable, "rewrote" when the rewrites changed
    the applied category, else "applied".  Every quantifier in cat and in
    the values of s must bind a variable, so one that binds a non-variable
    after apply is one the substitution made."""
    assert well_formed_cat(cat) and all(map(well_formed, s.values()))
    try:
        applied = map_sems(cat, lambda t: apply(s, t))
    except TermError:
        with pytest.raises(TermError):
            subst_cat(s, cat)
        return "raised"
    if not well_formed_cat(applied):
        with pytest.raises(QuantifierSlotError):
            subst_cat(s, cat)
        return "pruned"
    want = map_sems(applied, rewrite_pass)
    assert subst_cat(s, cat) == want
    return "applied" if want == applied else "rewrote"


def random_unifiers():
    """(a, b, unify(a, b)) for each of 6,000 seeded draws that unify."""
    rng = random.Random(20261018)
    for draw in range(6000):
        if draw % 2:
            a, b = rand_term(rng, 4, ["X", "Y", "Z", "W"], ("f", "and", "s-a")), \
                rand_term(rng, 4, ["X", "Y", "Z", "W"], ("f", "and", "s-a"))
        else:
            a, b = rand_lf(rng, 4), rand_lf(rng, 4)
        s = unify(a, b)
        if s is not None:
            yield a, b, s


def test_subst_cat_agrees_with_apply_then_rewrite_on_random_unifiers():
    tallies = {"applied": 0, "rewrote": 0, "raised": 0}
    for a, b, s in random_unifiers():
        cat = Slash("/", Atomic("s", a), Atomic("np", b))
        tallies[agrees_with_oracle(s, cat)] += 1
    assert tallies["applied"] > 500 and tallies["rewrote"] > 100 and tallies["raised"] > 5


def record_free_occurs(v, term, s):
    # Oracle: the node-by-node walk, which reads no record.
    stack = [term]
    while stack:
        term = walk(s, stack.pop())
        if isinstance(term, Var):
            if term == v:
                return True
        else:
            stack.extend(children(term))
    return False


def test_occurs_agrees_with_the_record_free_walk_on_random_unifiers():
    # The draws above, and their chart forms, which are recorded, under
    # their own unifier and under the chart forms' unifier, whose values
    # are recorded too.  Every variable of the pool is asked about, bound
    # or not.
    pool = [Var(x) for x in "XYZW"]
    tallies = {True: 0, False: 0, "recorded": 0}
    for a, b, s in random_unifiers():
        ra, rb = eta_reduce_sets(a), eta_reduce_sets(b)
        rs = unify(ra, rb)
        assert rs == unify(unrecorded(ra), unrecorded(rb))
        for unifier in (s, rs or {}):
            for term in (a, b, ra, rb, *unifier.values()):
                tallies["recorded"] += not isinstance(term, (Var, Atom)) \
                    and term.varset is not None
                for v in pool:
                    want = record_free_occurs(v, term, unifier)
                    assert occurs(v, term, unifier) == want, (v, term, unifier)
                    tallies[want] += 1
    assert min(tallies.values()) > 3000, tallies


def test_subst_cat_refuses_exactly_the_quantifiers_a_substitution_spoils():
    # A random term dense in quantifiers, under a unifier that binds each
    # variable of the pool to a small random term, leaves it unbound or
    # ties it to another.
    rng = random.Random(20261018)
    pool = ["X", "Y", "Z", "W"]

    def scoped(depth):
        if depth == 0 or rng.random() < 0.2:
            return rng.choice([Var(rng.choice(pool)), Atom("a")])
        if rng.random() < 0.5:
            return Compound("q-a", (Var(rng.choice(pool)), scoped(depth - 1),
                                    scoped(depth - 1)))
        return Compound("f", tuple(scoped(depth - 1) for _ in range(rng.randrange(1, 3))))

    tallies = {"applied": 0, "rewrote": 0, "raised": 0, "pruned": 0}
    for _ in range(2000):
        values = tuple(rand_term(rng, 1, pool) for _ in pool)
        s = unify(Compound("g", tuple(map(Var, pool))), Compound("g", values))
        if s is not None:
            tallies[agrees_with_oracle(s, Atomic("s", scoped(4)))] += 1
    assert tallies["applied"] > 100 and tallies["pruned"] > 100, tallies


def test_subst_cat_raises_where_apply_does():
    cat = parse_cat("s:f(X)/n:X^p(X)")
    s = {Var("X"): Atom("a")}
    with pytest.raises(TermError):
        apply(s, cat.arg.sem)
    with pytest.raises(TermError):
        subst_cat(s, cat)


def test_subst_cat_agrees_on_every_corpus_rule_result(monkeypatch):
    lex = default_lexicon()
    seen = []

    def checked(s, cat):
        seen.append(agrees_with_oracle(s, cat))
        return subst_cat(s, cat)

    monkeypatch.setattr(chart_module, "subst_cat", checked)
    # Every rule success of the all-pairs closure on well-formed operands,
    # recombined through the chart's rules: one subst_cat each.  The
    # corpus alone gives 1,803 (of 1,835 successes).
    sentences = [sent for _, sent, _, _ in read_data("corpus.txt", None, _corpus_entry)] \
        + [coordination_sentence(case) for case in (1, 2, "rnr")]
    for sentence in sentences:
        oracle = all_pairs_parse(tokenize(sentence), lex)
        for item in oracle.items.values():
            for label, *kids in (back for back in item.backs if back[0] != "lex"):
                left, right = (oracle.items[i].cat for i in kids)
                if well_formed_cat(left) and well_formed_cat(right):
                    chart_module._combine(label, left, right)
    assert len(seen) > 2000 and "rewrote" in seen and "pruned" in seen \
        and "raised" not in seen


def test_subst_cat_returns_canonical_input_itself():
    lex = default_lexicon()
    cats = [map_sems(e.cat, eta_reduce_sets) for e in lex.entries]
    for _, sentence, _, _ in read_data("corpus.txt", None, _corpus_entry):
        cats += [it.cat for it in all_pairs_parse(tokenize(sentence), lex).items.values()]
    for cat in cats:
        assert subst_cat({}, cat) is cat
    # A binding that reaches one atomic rebuilds only the path to it.
    cat = parse_cat("(s:saw(X, Y)\\np:X)/np:Y")
    out = subst_cat({Var("Y"): Atom("b")}, cat)
    assert out.result.arg is cat.result.arg
    assert out.arg != cat.arg and out.result.result != cat.result.result
