"""First-order logical terms with quantifier conventions.

Terms are immutable trees: variables, atoms, compounds, single-parameter
lambdas (written ``X^body``), and the clause-reifying wrapper ``up(body)``.
Substitutions are plain dicts from Var to Term in triangular form: unify
adds one binding at a time and never rewrites earlier values, so a value
may mention variables bound later; apply and apply_reduced follow the
chain.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import is_not
from typing import Iterator, Optional, Union


class TermError(Exception):
    """Raised for malformed terms or unparseable term text."""


class QuantifierSlotError(TermError):
    """A substitution bound a quantifier's variable slot to a non-variable."""


@dataclass(frozen=True)
class Var:
    id: str

    def __repr__(self) -> str:
        return f"Var({self.id})"


@dataclass(frozen=True)
class Atom:
    name: str

    def __repr__(self) -> str:
        return f"Atom({self.name})"


@dataclass(frozen=True)
class Compound:
    functor: str
    args: tuple

    def __repr__(self) -> str:
        return f"Compound({self.functor}, {list(self.args)})"


@dataclass(frozen=True)
class Lam:
    # The parameter is a binding occurrence; renaming is handled by
    # canonicalize, while unify/apply treat it like an ordinary argument
    # slot (entries are standardized apart, so capture cannot arise).
    param: Var
    body: "Term"

    def __repr__(self) -> str:
        return f"Lam({self.param.id}, {self.body!r})"


@dataclass(frozen=True)
class Up:
    body: "Term"

    def __repr__(self) -> str:
        return f"Up({self.body!r})"


Term = Union[Var, Atom, Compound, Lam, Up]

Subst = dict

QUANT_PREFIX = "q-"
SET_PREFIX = "s-"


def is_quant(t: Term) -> bool:
    """True for generalized-quantifier nodes q-<det>(V, restriction, body)."""
    return isinstance(t, Compound) and t.functor.startswith(QUANT_PREFIX) and len(t.args) == 3


def is_set_form(t: Term) -> bool:
    """True for set-denoting quantifier terms s-<det>(property)."""
    return isinstance(t, Compound) and t.functor.startswith(SET_PREFIX) and len(t.args) == 1


def is_and(t: Term) -> bool:
    """True for binary conjunctions and(A, B)."""
    return isinstance(t, Compound) and t.functor == "and" and len(t.args) == 2


def children(t: Term) -> tuple:
    """Immediate subterms: a compound's arguments, a lambda's parameter and
    body, the body of up(.); none for variables and atoms."""
    if isinstance(t, Compound):
        return t.args
    if isinstance(t, (Var, Atom)):
        return ()
    if isinstance(t, Lam):
        return (t.param, t.body)
    if isinstance(t, Up):
        return (t.body,)
    raise TermError(f"not a term: {t!r}")


def with_children(t: Term, kids) -> Term:
    """t rebuilt over kids, given in children(t) order."""
    if isinstance(t, Compound):
        return Compound(t.functor, tuple(kids))
    if isinstance(t, Lam):
        param, body = kids
        if not isinstance(param, Var):
            raise TermError(f"lambda parameter {t.param.id} replaced by a non-variable")
        return Lam(param, body)
    if isinstance(t, Up):
        (body,) = kids
        return Up(body)
    if isinstance(t, (Var, Atom)):
        return t
    raise TermError(f"not a term: {t!r}")


def subterms(t: Term) -> Iterator[Term]:
    """Every node of t in preorder, t first."""
    stack = [t]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(children(node)))


def unbound_quantifier(t: Term) -> Optional[Compound]:
    """The first quantifier in t, in preorder, whose variable slot holds a
    non-variable; None when t has none.  Such a quantifier binds nothing,
    so no reading can be read from a term that holds one."""
    return next((n for n in subterms(t) if is_quant(n) and not isinstance(n.args[0], Var)),
                None)


def walk(s: Subst, t: Term) -> Term:
    """t with variable bindings in s followed until an unbound variable or a
    non-variable; subterms are left as they are."""
    while isinstance(t, Var) and t in s:
        t = s[t]
    return t


def apply(s: Subst, t: Term, _active: frozenset = frozenset()) -> Term:
    """Apply substitution s to t, chasing bindings to a fixpoint.

    Unifiers produced here are triangular (a binding's value may mention
    variables bound later), and apply also accepts any other acyclic dict;
    a cyclic one raises TermError rather than looping.
    """
    if isinstance(t, Var):
        if t in s:
            if t in _active:
                raise TermError(f"cyclic substitution through {t.id}")
            return apply(s, s[t], _active | {t})
        return t
    if isinstance(t, Atom):
        return t
    return with_children(t, [apply(s, k, _active) for k in children(t)])


def occurs(v: Var, t: Term, s: Subst) -> bool:
    """Does v occur in t once the bindings in s are followed?"""
    stack = [t]
    while stack:
        t = walk(s, stack.pop())
        if isinstance(t, Var):
            if t == v:
                return True
        else:
            stack.extend(children(t))
    return False


def _bind(s: Subst, v: Var, t: Term) -> Optional[Subst]:
    # v is unbound in s; earlier bindings keep their values, so a binding
    # made here may leave v inside them for apply to chase.
    if occurs(v, t, s):
        return None
    out = dict(s)
    out[v] = t
    return out


def unify(a: Term, b: Term, s: Optional[Subst] = None) -> Optional[Subst]:
    """Most general unifier extending s, or None.  Occurs check is on.

    s must be acyclic, as every unifier returned here is.  The result is
    triangular: read it through apply.  Variable-variable ties bind the
    variable with the smaller id.
    """
    if s is None:
        s = {}
    a = walk(s, a)
    b = walk(s, b)
    if isinstance(a, Var) and isinstance(b, Var):
        if a == b:
            return s
        lo, hi = (a, b) if a.id < b.id else (b, a)
        return _bind(s, lo, hi)
    if isinstance(a, Var):
        return _bind(s, a, b)
    if isinstance(b, Var):
        return _bind(s, b, a)
    if isinstance(a, Atom) and isinstance(b, Atom):
        return s if a.name == b.name else None
    if isinstance(a, Compound) and isinstance(b, Compound):
        if a.functor != b.functor or len(a.args) != len(b.args):
            return None
        for x, y in zip(a.args, b.args):
            s = unify(x, y, s)
            if s is None:
                return None
        return s
    if isinstance(a, Lam) and isinstance(b, Lam):
        s = unify(a.param, b.param, s)
        if s is None:
            return None
        return unify(a.body, b.body, s)
    if isinstance(a, Up) and isinstance(b, Up):
        return unify(a.body, b.body, s)
    return None


class Renamer:
    """Stateful canonical renamer shared across several terms.

    Free variables get consistent fresh names in first-occurrence order;
    lambda parameters are renamed at their binding site with shadowing.
    name and bind are the two steps; rename and format_term both walk a
    term through them, so a renamed term prints as format_term prints the
    original with the same renamer.
    """

    def __init__(self, prefix: str = "v"):
        self.prefix = prefix
        self.count = 0
        self.free: dict = {}

    def _next(self) -> str:
        self.count += 1
        return f"{self.prefix}{self.count}"

    def name(self, v: Var, env: Optional[dict]) -> str:
        """Canonical name of an occurrence of v under the lambda bindings env."""
        if env and v.id in env:
            return env[v.id]
        if v.id not in self.free:
            self.free[v.id] = self._next()
        return self.free[v.id]

    def bind(self, param: Var, env: Optional[dict]) -> tuple:
        """(fresh name for a lambda parameter, env extended for its body)."""
        name = self._next()
        inner = dict(env) if env else {}
        inner[param.id] = name
        return name, inner

    def rename(self, t: Term, env: Optional[dict] = None) -> Term:
        if isinstance(t, Var):
            return Var(self.name(t, env))
        if isinstance(t, Atom):
            return t
        if isinstance(t, Lam):
            name, inner = self.bind(t.param, env)
            return Lam(Var(name), self.rename(t.body, inner))
        return with_children(t, [self.rename(k, env) for k in children(t)])


def canonicalize(t: Term) -> Term:
    """Alpha-canonical form: two terms are variants iff canonical forms are equal."""
    return Renamer().rename(t)


def free_vars(t: Term) -> tuple:
    """Free variables in first-occurrence order.

    Lam binds its parameter; a q-<det>(V, R, B) node binds V within R and B.
    Set-forms s-<det>(p) bind nothing.
    """
    seen: list = []

    def walk(t: Term, bound: frozenset) -> None:
        if isinstance(t, Var):
            if t not in bound and t not in seen:
                seen.append(t)
        elif isinstance(t, Lam):
            walk(t.body, bound | {t.param})
        elif is_quant(t) and isinstance(t.args[0], Var):
            inner = bound | {t.args[0]}
            walk(t.args[1], inner)
            walk(t.args[2], inner)
        else:
            for k in children(t):
                walk(k, bound)

    walk(t, frozenset())
    return tuple(seen)


def apply_reduced(s: Subst, t: Term) -> Term:
    """t under the unifier s, in the canonical form of a chart semantics,
    in one walk.

    Bindings are followed as in walk, and the result is canonical modulo
    two equivalences: s-<det>(X^p(X)) becomes s-<det>(p), and and/2 nests
    to the left, and(A, and(B, C)) becoming and(and(A, B), C), to a
    fixpoint.  Both rewrites keep the meaning; the canonical spelling lets
    a chart cell pack every bracketing of a coordination into one item, and
    printed categories use the short set form.  Left, because noun-modifier
    conjunctions are built left-nested, so their forms do not change.  The
    result is what applying s and then rewriting would give, and every
    subterm that does not change is returned as the input object.

    s must be acyclic.  Every unifier unify returns is, by its occurs
    check; unlike apply, this walk does not test for cycles.  A lambda
    parameter bound to a non-variable raises TermError, as in apply.
    Unlike apply, a quantifier q-<det>(V, R, B) whose variable V the walk
    replaces by a non-variable raises QuantifierSlotError: no term binds
    that slot back to a variable, so nothing built from the result can be
    read.  Only the replacement is refused; a quantifier that holds a
    non-variable in t, or in a value of s, already is returned as it is.
    """
    while isinstance(t, Var):
        if t not in s:
            return t
        t = s[t]
    if isinstance(t, Atom):
        return t
    kids = children(t)
    new = [apply_reduced(s, k) for k in kids]
    if any(map(is_not, new, kids)):
        if isinstance(kids[0], Var) and not isinstance(new[0], Var) and is_quant(t):
            raise QuantifierSlotError(f"{t.functor} would bind a non-variable")
        t = with_children(t, new)
    if not isinstance(t, Compound):
        return t
    if is_and(t) and is_and(t.args[1]):
        # Both arguments are canonical already, so the right one's
        # conjuncts hang off its left spine and none of them is an and/2.
        right, tail = t.args[1], []
        while is_and(right):
            tail.append(right.args[1])
            right = right.args[0]
        t = Compound("and", (t.args[0], right))
        for conjunct in reversed(tail):
            t = Compound("and", (t, conjunct))
        return t
    if t.functor.startswith(SET_PREFIX) and len(t.args) == 1:
        lam = t.args[0]
        if (isinstance(lam, Lam) and isinstance(lam.body, Compound)
                and lam.body.args == (lam.param,)):
            return Compound(t.functor, (Atom(lam.body.functor),))
    return t


def eta_reduce_sets(t: Term) -> Term:
    """Canonical form of a chart semantics: apply_reduced with no bindings.
    Returns t itself when nothing in it is rewritten."""
    return apply_reduced({}, t)


# --- textual syntax ---------------------------------------------------------

_NAME_CHARS = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_-?")


def _is_var_name(name: str) -> bool:
    # Canonical names v1, v2, ... count as variables so printed canonical
    # forms parse back to themselves.
    if name[0].isupper():
        return True
    if name[0] == "v" and len(name) > 1 and name[1:].isdigit():
        return True
    return False


class _Cursor:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, msg: str) -> TermError:
        return TermError(f"{msg} at position {self.pos}: {self.text!r}")

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def eat(self, ch: str) -> None:
        self.skip_ws()
        if self.peek() != ch:
            raise self.error(f"expected {ch!r}")
        self.pos += 1

    def name(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] in _NAME_CHARS:
            self.pos += 1
        if self.pos == start:
            raise self.error("expected a name")
        return self.text[start:self.pos]


def parse_term_at(cur: _Cursor) -> Term:
    t = _primary(cur)
    cur.skip_ws()
    if cur.peek() == "^":
        if not isinstance(t, Var):
            raise cur.error("lambda parameter must be a variable")
        cur.eat("^")
        return Lam(t, parse_term_at(cur))
    return t


def _primary(cur: _Cursor) -> Term:
    cur.skip_ws()
    if cur.peek() == "(":
        cur.eat("(")
        t = parse_term_at(cur)
        cur.eat(")")
        return t
    name = cur.name()
    cur.skip_ws()
    if cur.peek() == "(":
        cur.eat("(")
        args = [parse_term_at(cur)]
        cur.skip_ws()
        while cur.peek() == ",":
            cur.eat(",")
            args.append(parse_term_at(cur))
            cur.skip_ws()
        cur.eat(")")
        if name == "up":
            if len(args) != 1:
                raise cur.error("up takes exactly one argument")
            return Up(args[0])
        return Compound(name, tuple(args))
    if _is_var_name(name):
        return Var(name)
    return Atom(name)


def parse_term(text: str) -> Term:
    cur = _Cursor(text)
    t = parse_term_at(cur)
    cur.skip_ws()
    if cur.pos != len(cur.text):
        raise cur.error("trailing input")
    return t


def format_term(t: Term, renamer: Optional[Renamer] = None,
                env: Optional[dict] = None) -> str:
    """Printed form of t; with a renamer, variables print under their
    canonical names, as format_term(renamer.rename(t)) would, in one pass."""
    if isinstance(t, Var):
        return t.id if renamer is None else renamer.name(t, env)
    if isinstance(t, Atom):
        return t.name
    if isinstance(t, Compound):
        return f"{t.functor}({', '.join(format_term(a, renamer, env) for a in t.args)})"
    if isinstance(t, Lam):
        if renamer is None:
            return f"{t.param.id}^{format_term(t.body)}"
        name, inner = renamer.bind(t.param, env)
        return f"{name}^{format_term(t.body, renamer, inner)}"
    if isinstance(t, Up):
        return f"up({format_term(t.body, renamer, env)})"
    raise TermError(f"not a term: {t!r}")
