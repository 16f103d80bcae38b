import random

import pytest

from ccgscope import terms
from ccgscope.terms import (
    Atom,
    Compound,
    Lam,
    QuantifierSlotError,
    TermError,
    Up,
    Var,
    apply,
    apply_reduced,
    canonicalize,
    children,
    eta_reduce_sets,
    format_term,
    free_vars,
    is_and,
    is_set_form,
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


def test_apply_reduced_refuses_to_make_a_quantifier_over_a_non_variable():
    body = t("q-every(X, girl(X), smiled(X))")
    with pytest.raises(QuantifierSlotError):
        apply_reduced({Var("X"): Atom("j")}, body)
    # Also through a chain of bindings and inside a bound value.
    with pytest.raises(QuantifierSlotError):
        apply_reduced({Var("S"): body, Var("X"): Var("Y"), Var("Y"): t("s-a(b)")},
                      t("f(S)"))
    # A variable for a variable is fine, and so is a quantifier that
    # already held a non-variable: only the substitution's doing is refused.
    assert apply_reduced({Var("X"): Var("Y")}, body) == t("q-every(Y, girl(Y), smiled(Y))")
    spoilt = t("q-every(j, girl(j), smiled(j))")
    assert apply_reduced({Var("Z"): Atom("a")}, t("f(Z, q-every(j, girl(j), smiled(j)))")) \
        == t("f(a, q-every(j, girl(j), smiled(j)))")
    assert eta_reduce_sets(spoilt) is spoilt
    # apply, the plain substitution, builds it.
    assert apply({Var("X"): Atom("j")}, body) == spoilt


def test_apply_reduced_skips_a_recorded_subterm_its_unifier_does_not_reach(monkeypatch):
    walked = []
    real = terms.apply_reduced

    def counted(s, term):
        walked.append(term)
        return real(s, term)

    monkeypatch.setattr(terms, "apply_reduced", counted)
    term = eta_reduce_sets(t("f(g(X, h(Y)), k(Z))"))
    assert term.varset == {Var("X"), Var("Y"), Var("Z")}
    assert term.args[0].varset == {Var("X"), Var("Y")}
    walked.clear()
    got = counted({Var("Z"): Atom("a")}, term)
    assert got == t("f(g(X, h(Y)), k(a))")
    assert got.args[0] is term.args[0]
    assert walked == [term, term.args[0], term.args[1], Var("Z")]
    assert got.varset == {Var("X"), Var("Y")} and got.args[1].varset == frozenset()
    # A binding the record does not name returns the recorded term itself.
    assert counted({Var("W"): Atom("a")}, term) is term
    # Unrecorded, the same term is walked node by node.
    walked.clear()
    assert counted({Var("Z"): Atom("a")}, t("f(g(X, h(Y)), k(Z))")) == got
    assert len(walked) == 7


def test_an_unrecorded_non_canonical_term_is_still_rewritten():
    term = t("f(and(a, and(b, X)), s-a(Y^p(Y)), up(Z))")
    for _ in range(2):
        assert apply_reduced({Var("X"): Atom("c")}, term) \
            == t("f(and(and(a, b), c), s-a(p), up(Z))")
        assert eta_reduce_sets(term) == t("f(and(and(a, b), X), s-a(p), up(Z))")
    # Only what the walk returned is recorded: the canonical subterms.
    assert term.varset is None and term.args[0].varset is None
    assert term.args[1].varset is None
    assert term.args[0].args[1].varset == {Var("X")}
    assert term.args[1].args[0].varset == {Var("Y")}
    assert term.args[2].varset == {Var("Z")}


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


def rand_term(rng, depth, vars_pool, functors="fgh"):
    kind = rng.randrange(6 if depth > 0 else 2)
    if kind == 0:
        return Var(rng.choice(vars_pool))
    if kind == 1:
        return Atom(rng.choice("abc"))
    if kind in (2, 3):
        n = rng.randrange(1, 4)
        return Compound(
            rng.choice(functors),
            tuple(rand_term(rng, depth - 1, vars_pool, functors) for _ in range(n)),
        )
    if kind == 4:
        return Up(rand_term(rng, depth - 1, vars_pool, functors))
    return Lam(Var(rng.choice(vars_pool)), rand_term(rng, depth - 1, vars_pool, functors))


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
    # A lambda parameter is renamed like any other variable: one name for
    # every occurrence, as unify and apply read it.
    got = canonicalize(t("X^f(X, X^g(X), X)"))
    assert got == t("v1^f(v1, v1^g(v1), v1)")


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


def test_eta_reduce_sets_left_nests_and():
    assert eta_reduce_sets(t("and(a, and(b, and(c, d)))")) \
        == t("and(and(and(a, b), c), d)")
    assert eta_reduce_sets(t("and(and(a, b), and(and(c, d), e))")) \
        == t("and(and(and(and(a, b), c), d), e)")
    assert eta_reduce_sets(t("f(X^and(p(X), and(q(X), s-a(Y^r(Y)))))")) \
        == t("f(X^and(and(p(X), q(X)), s-a(r)))")
    for kept in ["and(a, and(b, c, d))", "and(a, b, and(c, d))",
                 "or(a, or(b, c))", "and(and(a, b), c)", "and(a, X)"]:
        assert eta_reduce_sets(t(kept)) == t(kept)


def test_eta_reduce_sets_returns_its_input_when_nothing_rewrites():
    for text in ["q-every(X, man(X), and(and(p(X), up(q(X))), Y^r(Y)))",
                 "s-two(Y^and(dialect(Y), of(Y, Z)))", "and(a, and(b, c, d))"]:
        term = t(text)
        assert eta_reduce_sets(term) is term


def eta_reduce_sets_oracle(term):
    # The set-form rule alone, rebuilding every node: the pass as it was
    # before and/2 was left-nested.
    if isinstance(term, (Var, Atom)):
        return term
    term = with_children(term, [eta_reduce_sets_oracle(k) for k in children(term)])
    if (
        is_set_form(term)
        and isinstance(term.args[0], Lam)
        and isinstance(term.args[0].body, Compound)
        and len(term.args[0].body.args) == 1
        and term.args[0].body.args[0] == term.args[0].param
    ):
        return Compound(term.functor, (Atom(term.args[0].body.functor),))
    return term


def flat_and(term):
    # Normal form modulo associativity: every and/2 chain as one n-ary node.
    if is_and(term):
        parts = []
        for side in term.args:
            side = flat_and(side)
            nary = isinstance(side, Compound) and side.functor == "AND"
            parts.extend(side.args if nary else [side])
        return Compound("AND", tuple(parts))
    return with_children(term, [flat_and(k) for k in children(term)])


def rand_lf(rng, depth):
    # Random terms dense in and/2 chains and eta-reducible set forms.
    kind = rng.randrange(6 if depth > 0 else 2)
    if kind == 0:
        return Var(rng.choice("XY"))
    if kind == 1:
        return Atom(rng.choice("abc"))
    if kind == 2:
        return Compound("and", (rand_lf(rng, depth - 1), rand_lf(rng, depth - 1)))
    if kind == 3:
        v = Var(rng.choice("XY"))
        return Compound("s-a", (Lam(v, Compound(rng.choice("pq"), (v,))),))
    if kind == 4:
        return Compound(rng.choice(["f", "and"]),
                        tuple(rand_lf(rng, depth - 1) for _ in range(rng.choice([1, 3]))))
    body = rand_lf(rng, depth - 1)
    return Up(body) if rng.random() < 0.5 else Lam(Var(rng.choice("XY")), body)


def test_eta_reduce_sets_is_canonical_modulo_associativity():
    rng = random.Random(20261018)
    fired = {"and": 0, "set": 0, "no and": 0}
    for _ in range(3000):
        term = rand_lf(rng, 5)
        got = eta_reduce_sets(term)
        assert not any(is_and(n) and is_and(n.args[1]) for n in subterms(got))
        assert eta_reduce_sets(got) is got
        old = eta_reduce_sets_oracle(term)
        assert flat_and(got) == flat_and(old)
        if not any(is_and(n) for n in subterms(term)):
            assert got == old
            fired["no and"] += 1
        if got == term:
            assert got is term
        fired["and"] += got != old
        fired["set"] += old != term
    assert min(fired.values()) > 100
    for _ in range(1000):
        term = rand_term(rng, 5, ["X", "Y"], ("f", "s-a", "g"))
        assert eta_reduce_sets(term) == eta_reduce_sets_oracle(term)


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
