import random

import pytest

from ccgscope.terms import (
    Atom,
    Compound,
    Lam,
    TermError,
    Up,
    Var,
    apply,
    canonicalize,
    children,
    eta_reduce_sets,
    format_term,
    free_vars,
    parse_term,
    subterms,
    unify,
    with_children,
)


def t(text):
    return parse_term(text)


# --- substitution -----------------------------------------------------------


def naive_apply(s, term):
    # Oracle: substitute one binding at a time until nothing changes.
    def once(term):
        if isinstance(term, Var):
            return s.get(term, term)
        if isinstance(term, Atom):
            return term
        if isinstance(term, Compound):
            return Compound(term.functor, tuple(once(a) for a in term.args))
        if isinstance(term, Lam):
            return Lam(once(term.param), once(term.body))
        if isinstance(term, Up):
            return Up(once(term.body))
        raise AssertionError

    prev, cur = None, term
    for _ in range(50):
        prev, cur = cur, once(cur)
        if cur == prev:
            return cur
    raise AssertionError("no fixpoint")


def test_apply_chases_bindings():
    s = {Var("X"): Atom("a"), Var("Y"): t("g(X)")}
    got = apply(s, t("f(X, Y)"))
    assert got == t("f(a, g(a))")
    assert got == naive_apply(s, t("f(X, Y)"))


def test_apply_cyclic_raises():
    s = {Var("X"): t("f(X)")}
    with pytest.raises(TermError):
        apply(s, Var("X"))


def test_apply_lambda_param_must_stay_var():
    s = {Var("X"): Atom("a")}
    with pytest.raises(TermError):
        apply(s, Lam(Var("X"), t("p(X)")))


# --- unification ------------------------------------------------------------


def test_unify_var_against_compound():
    s = unify(Var("N"), t("girl(X)"))
    assert s == {Var("N"): t("girl(X)")}


def test_unify_functor_mismatch():
    assert unify(t("f(a)"), t("g(a)")) is None
    assert unify(t("f(a)"), t("f(a, b)")) is None
    assert unify(Atom("a"), Atom("b")) is None


def test_unify_occurs_check():
    assert unify(Var("X"), t("f(X)")) is None
    assert unify(t("f(X, X)"), t("f(Y, g(Y))")) is None


def test_unify_var_var_binds_smaller_id():
    s = unify(Var("B"), Var("A"))
    assert s == {Var("A"): Var("B")}


def test_unify_extends_existing_subst():
    s = unify(Var("X"), Atom("a"))
    s = unify(t("f(X, Y)"), t("f(a, b)"), s)
    assert s == {Var("X"): Atom("a"), Var("Y"): Atom("b")}
    assert unify(t("f(X)"), t("f(b)"), {Var("X"): Atom("a")}) is None


def test_unify_through_lambda_and_up():
    s = unify(t("X^p(X, Y)"), t("Z^p(Z, a)"))
    assert apply(s, t("X^p(X, Y)")) == apply(s, t("Z^p(Z, a)"))
    s = unify(t("up(P)"), t("up(q(b))"))
    assert s == {Var("P"): t("q(b)")}
    assert unify(t("up(a)"), Atom("a")) is None


def rand_term(rng, depth, vars_pool):
    kind = rng.randrange(6 if depth > 0 else 2)
    if kind == 0:
        return Var(rng.choice(vars_pool))
    if kind == 1:
        return Atom(rng.choice("abc"))
    if kind in (2, 3):
        n = rng.randrange(1, 4)
        return Compound(
            rng.choice("fgh"),
            tuple(rand_term(rng, depth - 1, vars_pool) for _ in range(n)),
        )
    if kind == 4:
        return Up(rand_term(rng, depth - 1, vars_pool))
    return Lam(Var(rng.choice(vars_pool)), rand_term(rng, depth - 1, vars_pool))


def test_traversal_rebuilds_and_visits_every_node_once_in_preorder():
    def preorder(t):
        return [t] + [n for k in children(t) for n in preorder(k)]

    rng = random.Random(20260814)
    for _ in range(300):
        a = rand_term(rng, 4, ["X", "Y", "Z"])
        assert with_children(a, children(a)) == a
        assert [id(n) for n in subterms(a)] == [id(n) for n in preorder(a)]


def test_unify_random_pairs_produce_unifiers():
    rng = random.Random(20260814)
    pool = ["X", "Y", "Z", "W"]
    hits = 0
    for _ in range(1000):
        a = rand_term(rng, 4, pool)
        b = rand_term(rng, 4, pool)
        s = unify(a, b)
        if s is None:
            continue
        hits += 1
        try:
            ga, gb = apply(s, a), apply(s, b)
        except TermError:
            # A lambda parameter slot got a non-variable; the pair is not
            # a meaningful term pair, skip.
            continue
        assert ga == gb
        # Idempotence of the result.
        assert apply(s, ga) == ga
    assert hits > 100


# --- canonical forms --------------------------------------------------------


def test_canonicalize_numbers_vars_by_first_occurrence():
    got = canonicalize(t("X^and(rep(X), of(X, C))"))
    assert got == t("v1^and(rep(v1), of(v1, v2))")
    assert format_term(got) == "v1^and(rep(v1), of(v1, v2))"


def test_canonicalize_detects_variants():
    a = t("f(A, B, A)")
    b = t("f(P, Q, P)")
    c = t("f(P, P, Q)")
    assert canonicalize(a) == canonicalize(b)
    assert canonicalize(a) != canonicalize(c)


def test_canonicalize_lambda_shadowing():
    got = canonicalize(t("X^f(X, X^g(X), X)"))
    assert got == t("v1^f(v1, v2^g(v2), v1)")


def test_canonicalize_idempotent():
    rng = random.Random(7)
    for _ in range(200):
        a = rand_term(rng, 4, ["X", "Y", "Z"])
        c = canonicalize(a)
        assert canonicalize(c) == c


# --- free variables ---------------------------------------------------------


def test_free_vars_quantifier_binds_first_arg():
    got = free_vars(t("q-two(R, and(rep(R), of(R, C)), S)"))
    assert got == (Var("C"), Var("S"))


def test_free_vars_lambda_and_order():
    assert free_vars(t("X^f(X, Y)")) == (Var("Y"),)
    assert free_vars(t("f(B, A, B)")) == (Var("B"), Var("A"))
    assert free_vars(t("up(f(X))")) == (Var("X"),)
    assert free_vars(t("q-every(X, man(X), q-two(W, woman(W), danced(X, W)))")) == ()


# --- set-form eta reduction -------------------------------------------------


def test_eta_reduce_sets():
    assert eta_reduce_sets(t("s-one(X^sax(X))")) == t("s-one(sax)")
    kept = t("s-two(Y^and(dialect(Y), of(Y, Z)))")
    assert eta_reduce_sets(kept) == kept
    nested = t("f(s-all(W^example(W)), b)")
    assert eta_reduce_sets(nested) == t("f(s-all(example), b)")


# --- syntax -----------------------------------------------------------------


def test_parse_format_round_trip():
    for text in [
        "f(a, B, g(C, d))",
        "X^and(rep(X), of(X, C))",
        "q-most(S, samp(S), saw(R, S))",
        "up(danced(X, W))",
        "v1^p(v1, v7)",
        "X^Y^shows(X, Y, Z)",
        "at-most-three",
    ]:
        assert format_term(parse_term(text)) == text


def test_parse_classifies_names():
    assert parse_term("X") == Var("X")
    assert parse_term("v12") == Var("v12")
    assert parse_term("visited") == Atom("visited")
    assert parse_term("vx") == Atom("vx")
    assert parse_term("up(S)") == Up(Var("S"))


def test_parse_errors():
    for bad in ["f(", "f(a,)", "f(a) b", "", "^x", "f(a)^x", "up(a, b)"]:
        with pytest.raises(TermError):
            parse_term(bad)
