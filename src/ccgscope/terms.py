"""First-order logical terms with quantifier conventions.

Terms are immutable trees: variables, atoms, compounds, single-parameter
lambdas (written ``X^body``), and the clause-reifying wrapper ``up(body)``.
Substitutions are plain dicts from Var to Term in triangular form: unify
adds one binding at a time and never rewrites earlier values, so a value
may mention variables bound later; apply and apply_reduced follow the
chain.  apply, plain substitution, is the reference reading of a unifier;
the engine substitutes only through apply_reduced.

Representation.  Every term is a tuple.  Var is a NamedTuple, (id,), and
Atom one of (name, None): its second field is always None.  Compound,
Lam and Up each subclass a NamedTuple of their fields, (functor, args),
(param, body) and (body,), where args is a plain tuple of terms; the
subclass has no __slots__, so an instance can hold a record (below)
outside the tuple.  So equality and hashing are the tuple's, in C: the
chart's cells and the unifier's dicts look terms up without a Python
call per node.  The five classes are final: nothing subclasses them, so
the walks dispatch on the exact type (type(t) is Compound), and two
nodes of different types are told apart by one identity test.

Equality is exact: two terms are equal iff they are the same tree with
the same node types.  Tuple equality ignores the class, so this rests on
the layouts being type-distinct.  The one-field layouts are Var's (str,)
and Up's (term,); a string never equals a term.  The two-field layouts
are Atom's (str, None), Compound's (str, tuple) and Lam's (Var, term): a
string never equals a Var, and None is neither a term nor a tuple.  So
an atom is equal only to an atom: Atom("v1") != Var("v1").  A
compound's args are compared only with another compound's args, a tuple
of terms against a tuple of terms.  So by induction on the tree, equal
terms have equal node types and fields all the way down, and the record,
outside the tuple, plays no part.  Equal terms hash alike, as tuples do.
(A term does equal a plain tuple of its fields, Var("X") == ("X",); no
term holds a plain tuple where a term belongs.)

Records.  A compound, lambda or up(.) term may carry a record, varset:
the frozenset of the variables that occur in it, lambda parameters
included.  apply_reduced writes it, once, on every such term it returns,
as the union of its children's (a variable's being itself), gathered in
the loop that walks and rebuilds the children; an atom's record is empty
(class-wide), and every other term's is None (class-wide) until then.
The invariant: a recorded term is canonical (apply_reduced with no
bindings returns it as is), and each of its children is recorded or a
variable.  Records live in the instance's __dict__, outside the tuple,
so equality, hashing and repr ignore them, and building a term costs
nothing extra.  Two walks skip by them: apply_reduced returns a recorded
term that its unifier does not reach, and occurs reads a recorded term's
variables instead of its nodes.  Unrecorded terms (parser output, renamed
copies, the normalizer's forms) are walked node by node.
"""
from __future__ import annotations

import re
from typing import Callable, ClassVar, Iterator, NamedTuple, Optional, Union


class TermError(Exception):
    """Raised for malformed terms or unparseable term text."""


class QuantifierSlotError(TermError):
    """A substitution bound a quantifier's variable slot to a non-variable."""


class Var(NamedTuple):
    id: str

    def __repr__(self) -> str:
        return f"Var({self.id})"


class Atom(NamedTuple):
    name: str
    nil: None = None  # sets the layout apart (module docstring)
    varset = frozenset()

    def __repr__(self) -> str:
        return f"Atom({self.name})"


# The fields of the three inner node types.  Each type subclasses its
# fields without __slots__, so an instance can hold a record (varset)
# outside the tuple, where equality and hashing do not see it.

class _CompoundFields(NamedTuple):
    functor: str
    args: tuple


class _LamFields(NamedTuple):
    param: Var
    body: "Term"


class _UpFields(NamedTuple):
    body: "Term"


class Compound(_CompoundFields):
    varset: ClassVar[Optional[frozenset]] = None

    def __repr__(self) -> str:
        return f"Compound({self.functor}, {list(self.args)})"


class Lam(_LamFields):
    # Only free_vars and the normalizer read the parameter as a binder.
    # Everything else (unify, apply, the Renamer) treats it as a variable
    # like any other, so a lexical entry can share it with the rest of its
    # category: a determiner's noun parameter is its quantifier variable.
    # Entries are standardized apart, so no capture arises.
    varset: ClassVar[Optional[frozenset]] = None

    def __repr__(self) -> str:
        return f"Lam({self.param.id}, {self.body!r})"


class Up(_UpFields):
    varset: ClassVar[Optional[frozenset]] = None

    def __repr__(self) -> str:
        return f"Up({self.body!r})"


Term = Union[Var, Atom, Compound, Lam, Up]

Subst = dict

QUANT_PREFIX = "q-"
SET_PREFIX = "s-"


def is_quant(t: Term) -> bool:
    """True for generalized-quantifier nodes q-<det>(V, restriction, body)."""
    return type(t) is Compound and t.functor.startswith(QUANT_PREFIX) and len(t.args) == 3


def is_set_form(t: Term) -> bool:
    """True for set-denoting quantifier terms s-<det>(property)."""
    return type(t) is Compound and t.functor.startswith(SET_PREFIX) and len(t.args) == 1


def is_and(t: Term) -> bool:
    """True for binary conjunctions and(A, B)."""
    return type(t) is Compound and t.functor == "and" and len(t.args) == 2


def children(t: Term) -> tuple:
    """Immediate subterms: a compound's arguments, a lambda's parameter and
    body, the body of up(.); none for variables and atoms."""
    kind = type(t)
    if kind is Compound:
        return t.args
    if kind is Var or kind is Atom:
        return ()
    if kind is Lam:
        return (t.param, t.body)
    if kind is Up:
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
    would reach them node by node.  Bindings are followed inline and each
    node is dispatched on its exact type; an atom holds no variable."""
    stack = [t]
    pop, push, extend = stack.pop, stack.append, stack.extend
    while stack:
        t = pop()
        kind = type(t)
        while kind is Var and t in s:
            t = s[t]
            kind = type(t)
        if kind is Var:
            if t == v:
                return True
        elif kind is not Atom:
            varset = t.varset
            if varset is not None:
                if v in varset:
                    return v not in s
                extend(s.keys() & varset)
            elif kind is Compound:
                extend(t.args)
            elif kind is Lam:
                push(t.param)
                push(t.body)
            elif kind is Up:
                push(t.body)
            else:
                raise TermError(f"not a term: {t!r}")
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
    variable with the smaller id.  s itself is never changed: a binding
    goes into a copy.  Bindings are followed inline and each pair is
    dispatched on exact types, so two nodes of different types fail at
    once; one call per level of the terms.
    """
    if s is None:
        s = {}
    kind_a, kind_b = type(a), type(b)
    while kind_a is Var and a in s:
        a = s[a]
        kind_a = type(a)
    while kind_b is Var and b in s:
        b = s[b]
        kind_b = type(b)
    if kind_a is Var:
        if kind_b is Var:
            if a == b:
                return s
            if a.id < b.id:
                return _bind(s, a, b)
            return _bind(s, b, a)
        return _bind(s, a, b)
    if kind_b is Var:
        return _bind(s, b, a)
    if kind_a is not kind_b:
        return None
    if kind_a is Compound:
        if a.functor != b.functor or len(a.args) != len(b.args):
            return None
        for x, y in zip(a.args, b.args):
            s = unify(x, y, s)
            if s is None:
                return None
        return s
    if kind_a is Atom:
        return s if a.name == b.name else None
    if kind_a is Lam:
        s = unify(a.param, b.param, s)
        if s is None:
            return None
        return unify(a.body, b.body, s)
    if kind_a is Up:
        return unify(a.body, b.body, s)
    return None


class Renamer:
    """Consistent renaming of variables, shared across several terms.

    One rule: each variable, a lambda parameter too, gets one new variable
    for all its occurrences, named fresh(old id) when the walk first meets
    it, in children order.  By default fresh gives the canonical names v1,
    v2, ...  A canonical copy prints with those names: categories.cat_text
    is format_cat(canonical_cat(cat)).
    """

    def __init__(self, fresh: Optional[Callable[[str], str]] = None):
        self.fresh = fresh or self._canonical
        self.vars: dict = {}  # old Var.id -> renamed Var

    def _canonical(self, stem: str) -> str:
        return f"v{len(self.vars) + 1}"

    def rename(self, t: Term) -> Term:
        """t with every variable renamed; a new term, atoms shared.

        Iterative, so any depth renames: a compound, lambda or up(.) goes
        back on the stack under a _REBUILD mark and its children, last
        first, so the children pop, and their variables are named, in
        children order.  Each finished subterm goes on out; the mark pops
        once the node's children are all there, and the node is rebuilt
        over them."""
        vars, fresh = self.vars, self.fresh
        out: list = []
        stack = [t]
        pop, push, emit = stack.pop, stack.append, out.append
        while stack:
            t = pop()
            kind = type(t)
            if kind is Var:
                new = vars.get(t.id)
                if new is None:
                    new = vars[t.id] = Var(fresh(t.id))
                emit(new)
            elif kind is Atom:
                emit(t)
            elif t is _REBUILD:
                t = pop()
                kind = type(t)
                if kind is Compound:
                    n = len(t.args)
                    args = tuple(out[len(out) - n:])
                    del out[len(out) - n:]
                    emit(Compound(t.functor, args))
                elif kind is Lam:
                    body = out.pop()
                    out[-1] = Lam(out[-1], body)
                else:
                    out[-1] = Up(out[-1])
            elif kind is Compound:
                push(t)
                push(_REBUILD)
                stack.extend(reversed(t.args))
            elif kind is Lam:
                push(t)
                push(_REBUILD)
                push(t.body)
                push(t.param)
            elif kind is Up:
                push(t)
                push(_REBUILD)
                push(t.body)
            else:
                raise TermError(f"not a term: {t!r}")
        return out[0]


_REBUILD = object()  # Renamer.rename's mark: rebuild the node below it


def canonicalize(t: Term) -> Term:
    """Canonical form: every variable, lambda parameters included, renamed
    v1, v2, ... in first-occurrence order.  Two terms are variants (equal
    up to a one-to-one renaming of variables) iff their canonical forms are
    equal."""
    return Renamer().rename(t)


def free_vars(t: Term) -> tuple:
    """Free variables in first-occurrence order.

    Lam binds its parameter; a q-<det>(V, R, B) node binds V within R and B.
    Set-forms s-<det>(p) bind nothing.  Iterative, so any depth walks: the
    stack holds each subterm still to visit with the variables bound
    above it, children last first.
    """
    seen: dict = {}  # insertion-ordered: the free variables met so far
    stack = [(t, frozenset())]
    pop, push = stack.pop, stack.append
    while stack:
        t, bound = pop()
        kind = type(t)
        if kind is Var:
            if t not in bound:
                seen[t] = None
        elif kind is Compound:
            args = t.args
            if is_quant(t) and type(args[0]) is Var:
                bound = bound | {args[0]}
                push((args[2], bound))
                push((args[1], bound))
            else:
                for i in range(len(args) - 1, -1, -1):
                    push((args[i], bound))
        elif kind is Lam:
            push((t.body, bound | {t.param}))
        elif kind is Up:
            push((t.body, bound))
        elif kind is not Atom:
            raise TermError(f"not a term: {t!r}")
    return tuple(seen)


def apply_reduced(s: Subst, t: Term) -> Term:
    """t under the unifier s, in the canonical form of a chart semantics,
    in one walk.

    Bindings are followed to an unbound variable or a non-variable, and
    the result is canonical modulo two equivalences: s-<det>(X^p(X))
    becomes s-<det>(p), unless p is spelled like a variable (F, v1), as an
    atom p would print as one; and and/2 nests to the left, and(A, and(B,
    C)) becoming and(and(A, B), C), to a fixpoint.  Both rewrites keep the meaning; the canonical spelling
    lets a chart cell pack every bracketing of a coordination into one
    item, and printed categories use the short set form.  Left, because noun-modifier
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
    Children are walked first, left to right, so a fault inside a child
    raises before its parent's own, and the left child's before the right.

    Every compound, lambda and up(.) term returned is recorded (see the
    module docstring).  The walk dispatches on the node's exact type and
    gathers the record in the loop that walks the children: each child
    it returns adds itself if a variable, else its record.  A node that
    the and/2 or set-form rewrite replaces is not recorded; the nodes the
    rewrite builds are (_recorded).  A recorded t whose variables s
    leaves all unbound is returned at once: it is canonical, so the walk
    would rewrite nothing in it, and s reaches none of its variables, so
    every subterm would come back as the input object.  So a rule result
    costs the part of its operands that the unifier reaches.  One call
    per node walked, so one frame per level of the term.
    """
    kind = type(t)
    while kind is Var:
        if t not in s:
            return t
        t = s[t]
        kind = type(t)
    if kind is Atom:
        return t
    varset = t.varset
    if varset is not None and s.keys().isdisjoint(varset):
        return t
    varset = set()
    if kind is Compound:
        args = t.args
        new = []
        changed = False
        # A loop, not a comprehension: before Python 3.12 a comprehension is
        # a frame of its own, which would halve the depth this recursion
        # reaches.
        for k in args:
            new_k = apply_reduced(s, k)
            if new_k is not k:
                changed = True
            if type(new_k) is Var:
                varset.add(new_k)
            else:
                varset |= new_k.varset
            new.append(new_k)
        if changed:
            if type(args[0]) is Var and type(new[0]) is not Var and is_quant(t):
                raise QuantifierSlotError(f"{t.functor} would bind a non-variable")
            t = Compound(t.functor, tuple(new))
            args = t.args
        functor = t.functor
        if functor == "and" and len(args) == 2 and is_and(args[1]):
            # Both arguments are canonical already, so the right one's
            # conjuncts hang off its left spine and none of them is an and/2.
            right, tail = args[1], []
            while is_and(right):
                tail.append(right.args[1])
                right = right.args[0]
            t = _recorded(Compound("and", (args[0], right)))
            for conjunct in reversed(tail):
                t = _recorded(Compound("and", (t, conjunct)))
            return t
        if functor.startswith(SET_PREFIX) and len(args) == 1:
            lam = args[0]
            if (type(lam) is Lam and type(lam.body) is Compound
                    and lam.body.args == (lam.param,) and not _is_var_name(lam.body.functor)):
                return _recorded(Compound(functor, (Atom(lam.body.functor),)))
    elif kind is Lam:
        param, body = t.param, t.body
        new_param = apply_reduced(s, param)
        new_body = apply_reduced(s, body)
        if new_param is not param or new_body is not body:
            if type(new_param) is not Var:
                raise TermError(f"lambda parameter {t.param.id} replaced by a non-variable")
            t = Lam(new_param, new_body)
        for k in (new_param, new_body):
            if type(k) is Var:
                varset.add(k)
            else:
                varset |= k.varset
    elif kind is Up:
        body = t.body
        new_body = apply_reduced(s, body)
        if new_body is not body:
            t = Up(new_body)
        if type(new_body) is Var:
            varset.add(new_body)
        else:
            varset |= new_body.varset
    else:
        raise TermError(f"not a term: {t!r}")
    t.varset = frozenset(varset)
    return t


def _recorded(t: Compound) -> Compound:
    # A compound that an and/2 or set-form rewrite builds: canonical, its
    # arguments recorded or variables.  Its record is the union of theirs,
    # a variable's being itself.
    varset = set()
    for k in t.args:
        if type(k) is Var:
            varset.add(k)
        else:
            varset |= k.varset
    t.varset = frozenset(varset)
    return t


def eta_reduce_sets(t: Term) -> Term:
    """Canonical form of a chart semantics: apply_reduced with no bindings.
    Returns t itself when nothing in it is rewritten."""
    return apply_reduced({}, t)


# --- textual syntax ---------------------------------------------------------
#
# A term is a variable, an atom, a compound f(t, ...), up(t), a lambda
# V^t, or a term in parentheses; ^ reaches as far right as it can.  A name
# with an argument list is a functor; a name without one is a variable if
# it starts upper case or spells a canonical name v1, v2, ..., and an atom
# otherwise.  Blanks (spaces and tabs) may stand between tokens.  A name
# holds no prime ('), so no text spells a variable the engine invents
# (V'1 in categories.parse_cat, N' and V' in lexicon's @raise).

_NAME = re.compile(r"[A-Za-z0-9_?-]+")
_TOKEN = re.compile(r"[ \t]*(" + _NAME.pattern + r"|[^ \t])")


def _is_var_name(name: str) -> bool:
    # Canonical names v1, v2, ... count as variables so printed canonical
    # forms parse back to themselves.
    if name[0].isupper():
        return True
    if name[0] == "v" and len(name) > 1 and name[1:].isdigit():
        return True
    return False


class _Tokens:
    """The tokens of a text, read one at a time.  A token is blanks, then
    a name or any one other character; peek() is the next token, "" at
    the end.  Every error names the position of the next token, after
    its blanks (the text's length at the end)."""

    def __init__(self, text: str):
        self.text = text
        matches = list(_TOKEN.finditer(text))
        self.toks = [m[1] for m in matches] + [""]
        self.starts = [m.start(1) for m in matches] + [len(text)]
        self.i = 0

    def error(self, msg: str, pos: Optional[int] = None) -> TermError:
        if pos is None:
            pos = self.starts[self.i]
        return TermError(f"{msg} at position {pos}: {self.text!r}")

    def peek(self) -> str:
        return self.toks[self.i]

    def take(self) -> str:
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def expect(self, tok: str) -> None:
        if self.toks[self.i] != tok:
            raise self.error(f"expected {tok!r}")
        self.i += 1

    def name(self) -> str:
        tok = self.toks[self.i]
        if _NAME.match(tok) is None:
            raise self.error("expected a name")
        self.i += 1
        return tok


def parse_term_at(toks: _Tokens) -> Term:
    """The term that starts at the next token; toks is left after it."""
    t = _primary(toks)
    if toks.peek() == "^":
        if not isinstance(t, Var):
            raise toks.error("lambda parameter must be a variable")
        toks.take()
        return Lam(t, parse_term_at(toks))
    return t


def _primary(toks: _Tokens) -> Term:
    if toks.peek() == "(":
        toks.take()
        t = parse_term_at(toks)
        toks.expect(")")
        return t
    name = toks.name()
    if toks.peek() != "(":
        return Var(name) if _is_var_name(name) else Atom(name)
    toks.take()
    args = [parse_term_at(toks)]
    while toks.peek() == ",":
        toks.take()
        args.append(parse_term_at(toks))
    toks.expect(")")
    if name == "up":
        if len(args) != 1:
            # The position just past the closing parenthesis.
            raise toks.error("up takes exactly one argument", toks.starts[toks.i - 1] + 1)
        return Up(args[0])
    return Compound(name, tuple(args))


def parse_term(text: str) -> Term:
    toks = _Tokens(text)
    t = parse_term_at(toks)
    if toks.peek():
        raise toks.error("trailing input")
    return t


def format_term(t: Term) -> str:
    """Printed form of t."""
    return format_pieces([t])


def format_pieces(stack: list) -> str:
    """The printed form of the terms and plain strings on stack, taken from
    its end: format_term(t) is format_pieces([t]).
    Iterative, so any depth prints: the stack takes each compound's
    arguments and the punctuation between them, and every piece is
    appended to one list.  Every compound prints as f(a, ...), f() when
    it has no arguments.  stack is consumed."""
    out: list = []
    pop, push, append = stack.pop, stack.append, out.append
    while stack:
        t = pop()
        kind = type(t)
        if kind is str:
            append(t)
        elif kind is Var:
            append(t.id)
        elif kind is Compound:
            append(t.functor)
            append("(")
            push(")")
            args = t.args
            for j in range(len(args) - 1, 0, -1):
                push(args[j])
                push(", ")
            if args:
                push(args[0])
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
