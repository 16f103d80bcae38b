import itertools
import random
from collections import Counter

import pytest

from ccgscope import terms
from ccgscope.terms import (
    Atom,
    Compound,
    Lam,
    QuantifierSlotError,
    Renamer,
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
    occurs,
    parse_term,
    subterms,
    unify,
    with_children,
)

from ccgscope.categories import Atomic, Slash, map_sems, parse_cat, standardize_apart
from ccgscope.cli import _data_text
from ccgscope.lexicon import _split_top, default_lexicon
from helpers import (
    OracleRenamer,
    oracle_apply_reduced,
    oracle_occurs,
    oracle_parse_cat,
    oracle_parse_term,
    oracle_unify,
    tagged,
    unrecorded,
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


# --- the rule kernels against their isinstance oracles ---------------------


def test_the_term_classes_have_no_subclasses():
    # The kernels dispatch on type(t) is ..., which sees no subclass.
    for cls in (Var, Atom, Compound, Lam, Up, Atomic, Slash):
        assert cls.__subclasses__() == [], cls


def recorded_clone(t):
    """A node-for-node copy of t that carries t's records."""
    if type(t) in (Var, Atom):
        return t
    out = with_children(t, [recorded_clone(k) for k in children(t)])
    if t.varset is not None:
        out.varset = t.varset
    return out


def recorded_copies(t):
    """Two node-for-node copies of t's canonical form, recorded alike."""
    canonical = oracle_apply_reduced({}, unrecorded(t))
    return canonical, recorded_clone(canonical)


def record(t):
    return None if type(t) is Var else t.varset


def kernel_outcome(call, *args):
    try:
        return ("returned", call(*args))
    except Exception as exc:
        return ("raised", type(exc), str(exc))


def applied_outcome(kernel, s, t):
    """What apply_reduced (or its oracle) does to t under s: the result as
    a type-tagged tree, the origin of each of its nodes (the input node
    it is, by position in t or in a value of s, or "new"), the record of
    each of its nodes, and, after the call, the record of every node of t
    and of the values of s; or the exception's type and text."""
    inputs = [("t", t)] + [(v.id, u) for v, u in s.items()]
    origin = {}
    for name, term in inputs:
        for i, node in enumerate(subterms(term)):
            origin.setdefault(id(node), (name, i))
    got = kernel_outcome(kernel, s, t)
    after = [record(n) for _, term in inputs for n in subterms(term)]
    if got[0] == "raised":
        return got + (after,)
    out = got[1]
    return ("returned", tagged(out), [origin.get(id(n), "new") for n in subterms(out)],
            [record(n) for n in subterms(out)], after)


def test_rule_kernels_agree_with_their_isinstance_oracles():
    # apply_reduced, unify and occurs against the kernels they replaced
    # (helpers.oracle_*), over seeded terms of every generator, each run
    # on an unrecorded copy and on a recorded (canonical) one.  Each
    # kernel gets copies of its own, as records are written in place.
    # Equal results, the same input objects returned for every unchanged
    # subterm, the same records on every node returned or given, equal
    # unifier dicts, the caller's substitution untouched, and the same
    # exception type and text.
    rng = random.Random(20261020)
    pools = [("XYZW", lambda depth: rand_term(rng, depth, list("XYZW"), ("f", "s-a", "and"))),
             ("XY", lambda depth: rand_lf(rng, depth)),
             ("XYZ", lambda depth: rand_scoped(rng, depth))]
    copies = {"unrecorded": lambda t: (unrecorded(t), unrecorded(t)),
              "recorded": recorded_copies}
    tallies = Counter()
    for i in range(3000):
        names, gen = pools[i % 3]
        t, x, y = gen(4), gen(3), gen(3)
        for kind, copy in copies.items():
            # A unifier built binding by binding, then extended by x = y.
            s_new, s_old = {}, {}
            for _ in range(rng.randrange(1, 4)):
                v, (u_new, u_old) = Var(rng.choice(names)), copy(gen(2))
                before = dict(s_new)
                got, want = unify(v, u_new, s_new), oracle_unify(v, u_old, s_old)
                assert got == want and s_new == before, (v, u_new, before)
                if got is not None:
                    s_new, s_old = got, want
            (x_new, x_old), (y_new, y_old) = copy(x), copy(y)
            before = dict(s_new)
            got = kernel_outcome(unify, x_new, y_new, s_new)
            want = kernel_outcome(oracle_unify, x_old, y_old, s_old)
            assert got == want and s_new == before, (format_term(x), format_term(y))
            if got[0] == "returned" and got[1] is not None:
                s_new, s_old = got[1], want[1]
                tallies["unified"] += 1
            (t_new, t_old) = copy(t)
            for v in map(Var, names):
                if v not in s_new:
                    assert occurs(v, t_new, s_new) == oracle_occurs(v, t_old, s_old)
            got = applied_outcome(apply_reduced, s_new, t_new)
            want = applied_outcome(oracle_apply_reduced, s_old, t_old)
            assert got == want, (kind, format_term(t), s_new)
            tallies[kind] += 1
            if got[0] == "raised":
                tallies[got[1].__name__] += 1
            else:
                tallies["kept"] += got[2][0] != "new"
                tallies["rewritten"] += got[1] != tagged(t_new) and got[2][0] == "new"
    assert tallies["unrecorded"] == tallies["recorded"] == 3000
    for key in ("unified", "kept", "rewritten", "QuantifierSlotError", "TermError"):
        assert tallies[key] > 50, tallies


def test_rule_kernels_reach_as_deep_as_their_oracles():
    # One call per level, as in the kernels they replaced.
    def deepest(attempt):
        lo, hi = 1, 5000
        while lo < hi:
            mid = (lo + hi + 1) // 2
            try:
                attempt(mid)
                lo = mid
            except RecursionError:
                hi = mid - 1
        return lo

    def nested(depth, leaf):
        term = leaf
        for i in range(depth):
            term = (Compound("f", (term, Var("Y"))) if i % 3 == 0
                    else Lam(Var("Z"), term) if i % 3 == 1 else Up(term))
        return term

    for kernel, oracle in ((apply_reduced, oracle_apply_reduced), (unify, oracle_unify)):
        if kernel is apply_reduced:
            def attempt(depth, kernel=kernel):
                kernel({Var("X"): Atom("a")}, nested(depth, Var("X")))
        else:
            def attempt(depth, kernel=kernel):
                kernel(nested(depth, Var("X")), nested(depth, Atom("a")))
        mine = deepest(attempt)
        theirs = deepest(lambda depth: attempt(depth, oracle))
        assert mine >= theirs > 100, (kernel.__name__, mine, theirs)


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


def node_by_node(t):
    """t in preorder, each node as its type, its own field and its number
    of children: equal for two terms exactly when they are the same tree.
    Iterative, where == and repr recurse, so a term of any depth compares."""
    own = {Var: lambda n: n.id, Atom: lambda n: n.name, Compound: lambda n: n.functor}
    return [(type(n), own.get(type(n), lambda n: None)(n), len(children(n)))
            for n in subterms(t)]


def test_renamer_agrees_with_the_renamer_with_special_cases():
    # OracleRenamer is Renamer.rename as it was with a bare-variable return
    # and a leading-leaf branch for compounds.  One renamer of each renames
    # a batch of terms in turn, so names carry over from term to term.
    rng = random.Random(20261019)
    renamed = 0
    for batch in range(600):
        new, old = Renamer(), OracleRenamer()
        for _ in range(5):
            a = (rand_term(rng, 4, ["X", "Y", "Z", "W"]) if batch % 2
                 else rand_scoped(rng, 4))
            got, want = new.rename(a), old.rename(a)
            assert got == want and repr(got) == repr(want), format_term(a)
            assert tagged(got) == tagged(want)
            renamed += 1
        assert new.vars == old.vars
    assert renamed >= 3000

    deep = Var("X")
    for i in range(1500):
        k = i % 4
        deep = (Compound("f", (Var(f"Y{i % 7}"), Atom("a"), deep)) if k == 0
                else Compound("g", (deep, Var("X"))) if k == 1
                else Lam(Var(f"Z{i % 5}"), deep) if k == 2 else Up(deep))
    new, old = Renamer(), OracleRenamer()
    got, want = new.rename(deep), old.rename(deep)
    assert node_by_node(got) == node_by_node(want)
    assert len(node_by_node(got)) == 3001  # two nodes a level, and X
    assert format_term(got) == format_term(want)
    assert new.vars == old.vars

    # One renamer across a category's atomics, with a fresh callable, as
    # standardize_apart renames each lexical entry; one counter for all.
    count_new, count_old, count_apart = (itertools.count(1) for _ in range(3))
    for entry in default_lexicon().entries:
        new = Renamer(lambda stem: f"{stem}_{next(count_new)}")
        old = OracleRenamer(lambda stem: f"{stem}_{next(count_old)}")
        got, want = map_sems(entry.cat, new.rename), map_sems(entry.cat, old.rename)
        assert got == want and repr(got) == repr(want), entry.tag
        assert new.vars == old.vars
        assert standardize_apart(entry.cat, count_apart) == want


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
    # An atom v1 or F would print as a variable does, so these stay.
    for kept in ["s-e(X^v1(X))", "s-e(X^F(X))"]:
        assert eta_reduce_sets(t(kept)) == t(kept)


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


def rand_scoped(rng, depth):
    """Quantifiers, set forms, lambdas and up(.) in every arrangement,
    ill-formed ones included."""
    kind = rng.randrange(7 if depth > 0 else 2)
    if kind == 0:
        return Var(rng.choice("XYZ"))
    if kind == 1:
        return Atom(rng.choice("abc"))
    if kind == 2:
        return Compound("q-a", (Var(rng.choice("XYZ")), rand_scoped(rng, depth - 1),
                                rand_scoped(rng, depth - 1)))
    if kind == 3:
        v = Var(rng.choice("XYZ"))
        return Compound(rng.choice(["s-a", "s-b"]), (rng.choice(
            [Atom("p"), Lam(v, Compound("p", (v, rand_scoped(rng, depth - 1))))]),))
    if kind == 4:
        return Up(rand_scoped(rng, depth - 1))
    if kind == 5:
        return Lam(Var(rng.choice("XYZ")), rand_scoped(rng, depth - 1))
    return Compound(rng.choice(["f", "and"]),
                    tuple(rand_scoped(rng, depth - 1) for _ in range(rng.choice([1, 2, 3]))))


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


# --- equality and hashing ---------------------------------------------------

def retyped(t, target):
    """A copy of t whose node number target, in preorder, changes type but
    keeps its fields: a variable and an atom of one name swap, a lambda
    X^b becomes the compound X(b), up(b) the compound up(b), which prints
    alike, and a compound f(a, ...) becomes the lambda f^a.  Nodes are
    built directly, so a lambda parameter may become an atom."""
    count = itertools.count()

    def go(n):
        kind, here = type(n), next(count) == target
        if kind is Var:
            return Atom(n.id) if here else n
        if kind is Atom:
            return Var(n.name) if here else n
        if kind is Lam:
            param, body = go(n.param), go(n.body)
            return Compound(param.id, (body,)) if here else Lam(param, body)
        if kind is Up:
            body = go(n.body)
            return Compound("up", (body,)) if here else Up(body)
        args = tuple(go(a) for a in n.args)
        if here:
            return Lam(Var(n.functor), args[0]) if args else Atom(n.functor)
        return Compound(n.functor, args)
    return go(t)


def test_term_equality_is_exact():
    # Over the random terms of every generator, paired with a node-for-node
    # copy, a copy with one node retyped, a small random term and the
    # previous sample: two terms are equal exactly when their type-tagged
    # forms are, equal terms hash alike, and a record changes neither.
    rng = random.Random(20261019)
    tallies = dict.fromkeys(["equal", "unequal", "retyped", "recorded"], 0)
    previous = Var("X")
    for _ in range(500):
        for a in (rand_term(rng, 4, ["X", "Y", "Z"]), rand_lf(rng, 4), rand_scoped(rng, 4)):
            copy = unrecorded(a)
            others = [copy, retyped(a, rng.randrange(sum(1 for _ in subterms(a)))),
                      rand_term(rng, 1, ["X", "Y"], "f"), previous]
            for b in others:
                same = tagged(a) == tagged(b)
                assert (a == b) is same and (a != b) is not same, (a, b)
                if same:
                    assert hash(a) == hash(b), (a, b)
                tallies["equal" if same else "unequal"] += 1
            tallies["retyped"] += tagged(others[1]) != tagged(a)
            try:
                recorded = eta_reduce_sets(a)
            except TermError:
                recorded = a  # a lambda parameter holds a non-variable
            if type(recorded) in (Compound, Lam, Up):
                # A record, and a record that names the wrong variables,
                # change neither equality nor hash.
                bare = unrecorded(recorded)
                assert recorded.varset is not None and bare.varset is None
                assert recorded == bare and hash(recorded) == hash(bare)
                bare.varset = frozenset([Var("W")])
                assert bare == unrecorded(recorded) and hash(bare) == hash(recorded)
                tallies["recorded"] += 1
            previous = a
    assert min(tallies.values()) > 500, tallies


def test_equal_layouts_of_different_types_are_unequal():
    # The tuple layouts differ by type: a variable holds a string where
    # up(.) holds a term, and a compound a string where a lambda holds a
    # variable.  An atom is (name, None), and None is neither a term nor
    # a tuple.
    assert Var("v1") != Atom("v1") and Atom("v1") != Var("v1")
    assert len({Var("v1"), Atom("v1")}) == 2
    assert Up(Var("X")) != Var("X")
    assert Up(Atom("a")) != Compound("up", (Atom("a"),))
    lam = Lam(Var("X"), Compound("p", (Var("X"),)))
    assert Compound("X", (lam.body,)) != lam and lam != Compound("X", (lam.body,))
    assert Compound("X", lam.body) != lam
    # Every pair of classes, each built over the same field values: the
    # name X, the variable X and the term p(X).
    x, body = Var("X"), lam.body
    built = [x, Atom("X"), Compound("X", ()), Compound("X", (x,)), Compound("X", (body,)),
             Compound("X", body), Lam(x, x), lam, Up(x), Up(body), Up(Atom("X"))]
    # A category is built over the same values; an atomic is (sort, sem)
    # and a slash (dir, result, arg).
    np = Atomic("X", x)
    cats = [np, Atomic("X", body), Atomic("/", np), Slash("/", np, np), Slash("X", x, body)]
    for group, classes in ((built, {Var, Atom, Compound, Lam, Up}), (cats, {Atomic, Slash})):
        assert {type(t) for t in group} == classes
        for a, b in itertools.combinations(group, 2):
            if type(a) is not type(b):
                assert a != b and b != a, (a, b)
                assert len({a, b}) == 2, (a, b)
    # Tuple equality ignores the class, so a category can equal a term
    # (categories docstring): no dict or set holds both.
    assert Atomic("X", Up(x)) == Compound("X", (x,))


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


def test_format_prints_a_compound_without_arguments_with_parentheses():
    assert format_term(Compound("f", ())) == "f()"
    assert format_term(Compound("g", (Compound("f", ()), Var("X")))) == "g(f(), X)"


def _bundled_texts():
    """The categories of the bundled lexicon's :: and @tset lines, and the
    skeletons of the bundled skeleton file."""
    cats = []
    for raw in _data_text("fragment.lex").splitlines():
        line = raw.split("#", 1)[0].strip()
        if line.startswith("@tset"):
            cats.extend(_split_top(line[len("@tset"):].strip()))
        elif "::" in line:
            cats.append(line.split("::", 1)[1].strip())
    skeletons = [line.split("\t", 1)[1].strip()
                 for line in _data_text("corpus.skel").splitlines()
                 if "\t" in line and not line.startswith("#")]
    return cats, skeletons


_MUTATION_CHARS = "()^,:/\\ \t\nXYZVv1a_-?!\u00e9snp"


def _mutated(rng, text):
    """text with one to three random edits: a character inserted, deleted
    or replaced, or a slice of the text copied in."""
    for _ in range(rng.randrange(1, 4)):
        i = rng.randrange(len(text) + 1)
        edit = rng.randrange(4)
        if edit == 0:
            text = text[:i] + rng.choice(_MUTATION_CHARS) + text[i:]
        elif edit == 1:
            text = text[:i] + text[i + 1:]
        elif edit == 2:
            text = text[:i] + rng.choice(_MUTATION_CHARS) + text[i + 1:]
        else:
            j = rng.randrange(len(text) + 1)
            text = text[:i] + text[min(i, j):max(i, j)] + text[i:]
    return text


def _outcome(read, text):
    try:
        got = read(text)
    except Exception as exc:
        return ("error", type(exc), str(exc))
    return ("read", got, repr(got))


def test_token_reader_agrees_with_the_character_reader():
    # The bundled categories and skeletons, 3,000 printed random terms,
    # and 20 mutations of each: equal results, or the same error.
    rng = random.Random(20261019)
    cats, skeletons = _bundled_texts()
    terms_text = skeletons + [format_term(rand_scoped(rng, 5)) for _ in range(3000)]
    checked = {"read": 0, "error": 0}
    for texts, read, oracle in ((terms_text, parse_term, oracle_parse_term),
                                (cats, parse_cat, oracle_parse_cat)):
        for text in texts:
            for case in [text] + [_mutated(rng, text) for _ in range(20)]:
                got, want = _outcome(read, case), _outcome(oracle, case)
                assert got == want, case
                checked[got[0]] += 1
    assert len(cats) > 80 and len(skeletons) > 5
    assert min(checked.values()) > 10000


def test_category_reader_reads_as_deep_as_the_character_reader():
    def deepest(read):
        lo, hi = 1, 5000
        while lo < hi:
            mid = (lo + hi + 1) // 2
            try:
                read("s:" + "f(" * mid + "X" + ")" * mid + "/s:X")
                lo = mid
            except RecursionError:
                hi = mid - 1
        return lo

    assert deepest(parse_cat) >= deepest(oracle_parse_cat) > 100
