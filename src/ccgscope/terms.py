"""First-order logical terms with quantifier conventions.

Terms are immutable trees: variables, atoms, compounds, single-parameter
lambdas (written ``X^body``), and the clause-reifying wrapper ``up(body)``.
Substitutions are plain dicts from Var to Term in triangular form: unify
adds one binding at a time and never rewrites earlier values, so a value
may mention variables bound later; apply and apply_reduced follow the
chain.

Records.  A compound, lambda or up(.) term may carry a record, varset:
the frozenset of the variables that occur in it, lambda parameters
included.  apply_reduced writes it, once, on every such term it returns,
from the records of the term's children; an atom's record is empty
(class-wide), and every other term's is None until then.  The invariant:
a recorded term is canonical (apply_reduced with no bindings returns it
as is), and each of its children is recorded or a variable.  Records are
a class attribute, not a field, so equality, hashing and repr ignore
them, and building a term costs nothing extra.  Two walks skip by them:
apply_reduced returns a recorded term that its unifier does not reach,
and occurs reads a recorded term's variables instead of its nodes.
Unrecorded terms (parser output, renamed copies, the normalizer's forms)
are walked node by node.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import is_not
from typing import Callable, ClassVar, Iterator, Optional, Union


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
    varset: ClassVar[frozenset] = frozenset()

    def __repr__(self) -> str:
        return f"Atom({self.name})"


@dataclass(frozen=True)
class Compound:
    functor: str
    args: tuple
    varset: ClassVar[Optional[frozenset]] = None

    def __repr__(self) -> str:
        return f"Compound({self.functor}, {list(self.args)})"


@dataclass(frozen=True)
class Lam:
    # Only free_vars and the normalizer read the parameter as a binder.
    # Everything else (unify, apply, the Renamer) treats it as a variable
    # like any other, so a lexical entry can share it with the rest of its
    # category: a determiner's noun parameter is its quantifier variable.
    # Entries are standardized apart, so no capture arises.
    param: Var
    body: "Term"
    varset: ClassVar[Optional[frozenset]] = None

    def __repr__(self) -> str:
        return f"Lam({self.param.id}, {self.body!r})"


@dataclass(frozen=True)
class Up:
    body: "Term"
    varset: ClassVar[Optional[frozenset]] = None

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
    """Does v occur in t once the bindings in s are followed?

    s must be acyclic.  A recorded subterm is answered from its record: v
    occurs in it literally iff v is in the record (and then occurs once
    bindings are followed iff s leaves v unbound: a bound v is replaced
    wherever it stands).  Otherwise v can only come in through a variable
    of the record that s binds, so the walk follows those alone, as it
    would reach them node by node."""
    stack = [t]
    while stack:
        t = walk(s, stack.pop())
        if isinstance(t, Var):
            if t == v:
                return True
        elif t.varset is None:
            stack.extend(children(t))
        elif v in t.varset:
            return v not in s
        else:
            stack.extend(s.keys() & t.varset)
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
    """Consistent renaming of variables, shared across several terms.

    One rule: each variable, a lambda parameter too, gets one new name for
    all its occurrences, drawn from fresh(old id) when the walk first
    meets it, in children order.  By default fresh gives the canonical
    names v1, v2, ...  rename and format_term both take names from name,
    so a renamed term prints as format_term prints the original with the
    same renamer.  Names and renamed variables are kept apart so that
    printing, the hot path of cat_key, makes no Var.
    """

    def __init__(self, fresh: Optional[Callable[[str], str]] = None):
        self.fresh = fresh or self._canonical
        self.names: dict = {}  # old Var.id -> new name
        self.vars: dict = {}   # old Var.id -> renamed Var, made once by rename

    def _canonical(self, stem: str) -> str:
        return f"v{len(self.names) + 1}"

    def name(self, v: Var) -> str:
        """The new name of v."""
        new = self.names.get(v.id)
        if new is None:
            new = self.names[v.id] = self.fresh(v.id)
        return new

    def rename(self, t: Term) -> Term:
        if isinstance(t, Var):
            new = self.vars.get(t.id)
            if new is None:
                new = self.vars[t.id] = Var(self.name(t))
            return new
        if isinstance(t, Atom):
            return t
        return with_children(t, [self.rename(k) for k in children(t)])


def canonicalize(t: Term) -> Term:
    """Canonical form: every variable, lambda parameters included, renamed
    v1, v2, ... in first-occurrence order.  Two terms are variants (equal
    up to a one-to-one renaming of variables) iff their canonical forms are
    equal."""
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

    Every compound, lambda and up(.) term returned is recorded (see the
    module docstring): the walk writes its record from its children's,
    which it has just returned.  A recorded t whose variables s leaves
    all unbound is returned at once: it is canonical, so the walk would
    rewrite nothing in it, and s reaches none of its variables, so every
    subterm would come back as the input object.  So a rule result costs
    the part of its operands that the unifier reaches.
    """
    while isinstance(t, Var):
        if t not in s:
            return t
        t = s[t]
    if isinstance(t, Atom) or (t.varset is not None and s.keys().isdisjoint(t.varset)):
        return t
    kids = children(t)
    new = [apply_reduced(s, k) for k in kids]
    if any(map(is_not, new, kids)):
        if isinstance(kids[0], Var) and not isinstance(new[0], Var) and is_quant(t):
            raise QuantifierSlotError(f"{t.functor} would bind a non-variable")
        t = with_children(t, new)
    if not isinstance(t, Compound):
        return _recorded(t)
    if is_and(t) and is_and(t.args[1]):
        # Both arguments are canonical already, so the right one's
        # conjuncts hang off its left spine and none of them is an and/2.
        right, tail = t.args[1], []
        while is_and(right):
            tail.append(right.args[1])
            right = right.args[0]
        t = _recorded(Compound("and", (t.args[0], right)))
        for conjunct in reversed(tail):
            t = _recorded(Compound("and", (t, conjunct)))
        return t
    if t.functor.startswith(SET_PREFIX) and len(t.args) == 1:
        lam = t.args[0]
        if (isinstance(lam, Lam) and isinstance(lam.body, Compound)
                and lam.body.args == (lam.param,)):
            return _recorded(Compound(t.functor, (Atom(lam.body.functor),)))
    return _recorded(t)


def _recorded(t: Term) -> Term:
    # t is canonical and its children are recorded or variables: write
    # the union of their records as t's.  A single child that is not a
    # variable lends t its own record.
    kids = t.args if type(t) is Compound else children(t)
    if len(kids) == 1 and type(kids[0]) is not Var:
        object.__setattr__(t, "varset", kids[0].varset)
        return t
    varset = set()
    for k in kids:
        if type(k) is Var:
            varset.add(k)
        else:
            varset |= k.varset
    object.__setattr__(t, "varset", frozenset(varset))
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


def format_term(t: Term, renamer: Optional[Renamer] = None) -> str:
    """Printed form of t; with a renamer, variables print under their new
    names, as format_term(renamer.rename(t)) would, in one pass."""
    return format_pieces([t], renamer)


def format_pieces(stack: list, renamer: Optional[Renamer] = None) -> str:
    """The printed form of the terms and plain strings on stack, taken from
    its end: format_term(t, renamer) is format_pieces([t], renamer).
    Iterative, so any depth prints: the stack takes each compound's
    arguments and the punctuation between them, and every piece is
    appended to one list.  Variables are named as they are popped, in
    children order, as a recursive printer would.  stack is consumed."""
    out: list = []
    pop, push, append = stack.pop, stack.append, out.append
    name = None if renamer is None else renamer.name
    while stack:
        t = pop()
        kind = type(t)
        if kind is str:
            append(t)
        elif kind is Var:
            append(t.id if name is None else name(t))
        elif kind is Compound:
            # Leading variable and atom arguments print at once; the rest
            # go on the stack, with the punctuation between them.
            append(t.functor)
            append("(")
            args, i = t.args, 0
            for a in args:
                if type(a) is Var:
                    append(a.id if name is None else name(a))
                elif type(a) is Atom:
                    append(a.name)
                else:
                    break
                i += 1
                if i < len(args):
                    append(", ")
            if i == len(args):
                append(")")
                continue
            push(")")
            for j in range(len(args) - 1, i, -1):
                push(args[j])
                push(", ")
            push(args[i])
        elif kind is Atom:
            append(t.name)
        elif kind is Lam:
            push(t.body)
            push("^")
            push(t.param)
        elif kind is Up:
            append("up(")
            push(")")
            push(t.body)
        else:
            raise TermError(f"not a term: {t!r}")
    return "".join(out)
