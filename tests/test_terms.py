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


def eager_occurs(v, term):
    if isinstance(term, Var):
        return term == v
    return any(eager_occurs(v, k) for k in children(term))


def eager_bind(s, v, term):
    # Oracle: the idempotent form, which rewrites every earlier binding.
    if isinstance(term, Var) and term == v:
        return s
    if eager_occurs(v, term):
        return None
    one = {v: term}
    out = {w: apply(one, u) for w, u in s.items()}
    out[v] = term
    return out


def eager_unify(a, b, s=None):
    # Oracle: applies the whole substitution at every step.
    if s is None:
        s = {}
    a = apply(s, a)
    b = apply(s, b)
    if isinstance(a, Var) and isinstance(b, Var):
        if a == b:
            return s
        lo, hi = (a, b) if a.id < b.id else (b, a)
        return eager_bind(s, lo, hi)
    if isinstance(a, Var):
        return eager_bind(s, a, b)
    if isinstance(b, Var):
        return eager_bind(s, b, a)
    if isinstance(a, Atom) and isinstance(b, Atom):
        return s if a.name == b.name else None
    if isinstance(a, Compound) and isinstance(b, Compound):
        if a.functor != b.functor or len(a.args) != len(b.args):
            return None
        for x, y in zip(a.args, b.args):
            s = eager_unify(x, y, s)
            if s is None:
                return None
        return s
    if isinstance(a, Lam) and isinstance(b, Lam):
        s = eager_unify(a.param, b.param, s)
        if s is None:
            return None
        return eager_unify(a.body, b.body, s)
    if isinstance(a, Up) and isinstance(b, Up):
        return eager_unify(a.body, b.body, s)
    return None


def applied(s, term):
    # Both forms choose the same variables, so the applied terms are equal
    # as they stand, not only up to renaming.
    try:
        return apply(s, term)
    except TermError:
        return "lambda parameter bound to a non-variable"


def test_triangular_unify_agrees_with_eager_oracle():
    rng = random.Random(20261018)
    pool = ["X", "Y", "Z", "W"]
    compared = 0
    for _ in range(2000):
        a = rand_term(rng, 4, pool)
        b = rand_term(rng, 4, pool)
        prior = {}
        if rng.random() < 0.5:
            prior = unify(Var(rng.choice(pool)), rand_term(rng, 2, ["Y", "W"]))
            if prior is None:
                continue
        try:
            want = eager_unify(a, b, dict(prior))
        except TermError:
            # The eager oracle applies its substitution to the inputs at
            # every step, which fails once a lambda parameter is bound to
            # a non-variable; the triangular form meets that only in apply.
            continue
        got = unify(a, b, prior)
        assert (got is None) == (want is None), (a, b, prior)
        if got is None:
            continue
        compared += 1
        for term in (a, b):
            assert applied(got, term) == applied(want, term)
        # Earlier bindings keep their values: only new keys are added.
        assert all(got[v] == prior[v] for v in prior)
    assert compared > 200


def test_unify_leaves_its_input_substitution_alone():
    s = {Var("X"): Var("Y")}
    assert unify(t("f(X, Y)"), t("f(a, b)"), s) is None
    got = unify(t("f(X, Z)"), t("f(a, g(X))"), s)
    assert s == {Var("X"): Var("Y")}
    assert got == {Var("X"): Var("Y"), Var("Y"): Atom("a"), Var("Z"): t("g(X)")}
    assert apply(got, t("f(X, Z)")) == t("f(a, g(a))")


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
