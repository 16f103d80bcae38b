"""Directional categories whose atomic parts carry logical-form terms.

Syntax: slashes are left-associative, parentheses override, and a term
annotation ``:term`` may follow an atomic sort only.  An atomic written
without an annotation gets the variable V'1, V'2, ..., numbered left to
right.  A name holds no prime, so no text spells these and none can
meet a written variable.  The letter comes first: of two tied variables
unify binds the one whose id sorts first, and these ids sort among
written ones by their letter.  The spelling decides how much keying a
chart takes, not, on the bundled lexicon, its items or readings.  Text
is read with the term reader's tokens (terms._Tokens), so blanks may
stand between any two tokens.

Representation.  Atomic is a NamedTuple (sort, sem) and Slash one of
(dir, result, arg), so categories hash and compare in C, as terms do
(terms).  Two fields never equal three, so an atomic never equals a
slash, and equal categories are the same tree.  Tuple equality ignores
the class, so a category can equal a term: Atomic("s", Up(b)) ==
Compound("s", (b,)).  No dict or set holds both kinds: the chart files
categories by category and by key, unifiers map variables to terms, and
the normalizer files terms.

Keys.  cat_key is a category's identity up to renaming of variables: a
tuple of tokens, the category's nodes in preorder (a slash's result
before its argument, a lambda's parameter before its body), each node
its class (Atomic, Slash, Var, Atom, Compound, Lam, Up) followed by its
fields: a sort, a slash direction, a variable's number (in first-
occurrence order, from 1), an atom's name, a compound's functor and
arity.  The tuple decodes uniquely.  Read left to right, the token where
a node begins is a class, and the class fixes what follows: how many
fields, then how many child nodes (one term under an atomic, two
categories under a slash, arity many terms under a compound, two under
a lambda, one under up(.), none under a variable or an atom).  So the
tree is rebuilt one node at a time, and the tokens fall into nodes one
way only.  A name never stands where a node begins, whatever it spells:
the atom v1 is (Atom, "v1") and a variable is (Var, n); a functor np is
read as a functor, never as a sort; g(f(a), b) and g(f(a, b)) differ in
f's arity.

So keys are equal iff the categories are variants.  If a one-to-one
renaming takes a onto b, the walk meets the same nodes in the same order
in both, each variable of a first where its image is first met in b, so
the numbers and the keys agree.  If the keys agree, both decode to one
tree, so a and b differ only in their variables, and sending a's
variable numbered n to b's numbered n is a one-to-one renaming of a onto
b.  The printed canonical copy, cat_text, is for display; the chart
and the lexicon compare keys.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterator, NamedTuple, Optional, Union

from .terms import (
    Atom,
    Compound,
    Lam,
    Renamer,
    Subst,
    Term,
    TermError,
    Up,
    Var,
    _NAME,
    _Tokens,
    apply_reduced,
    format_pieces,
    parse_term_at,
    unify,
)

SORTS = ("s", "np", "n", "sbar", "comma")


class CatError(Exception):
    """Raised for unparseable or ill-formed category text."""


class Atomic(NamedTuple):
    sort: str
    sem: Term

    def __repr__(self) -> str:
        return f"Atomic({self.sort}, {self.sem!r})"


class Slash(NamedTuple):
    """A slash category, and with sorts at its leaves a slash shape
    (cat_shape): one structure, so the chart's rules read both alike."""
    dir: str  # "/" or "\\"
    result: "Category"
    arg: "Category"

    def __repr__(self) -> str:
        return f"Slash({self.dir}, {self.result!r}, {self.arg!r})"


Category = Union[Atomic, Slash]


def atomics(cat: Category) -> Iterator[Atomic]:
    """Atomic leaves in left-to-right written order."""
    if isinstance(cat, Atomic):
        yield cat
    else:
        yield from atomics(cat.result)
        yield from atomics(cat.arg)


def map_sems(cat: Category, fn: Callable[[Term], Term]) -> Category:
    if isinstance(cat, Atomic):
        return Atomic(cat.sort, fn(cat.sem))
    return Slash(cat.dir, map_sems(cat.result, fn), map_sems(cat.arg, fn))


def subst_cat(s: Subst, cat: Category) -> Category:
    """cat under the unifier s, every semantics in canonical chart form
    (apply_reduced): the one place a rule result is canonicalized.  cat
    itself, and each subcategory that does not change, is returned as is.
    Dispatches on the exact type: Atomic and Slash have no subclasses."""
    if type(cat) is Atomic:
        sem = apply_reduced(s, cat.sem)
        return cat if sem is cat.sem else Atomic(cat.sort, sem)
    result = subst_cat(s, cat.result)
    arg = subst_cat(s, cat.arg)
    if result is cat.result and arg is cat.arg:
        return cat
    return Slash(cat.dir, result, arg)


def cat_shape(cat: Category) -> Union[str, Slash]:
    """Sort and slash skeleton without terms: the sort of an atomic, and
    Slash(dir, result shape, arg shape) for a slash.  unify_cat fails on
    any two categories whose shapes differ."""
    if isinstance(cat, Atomic):
        return cat.sort
    return Slash(cat.dir, cat_shape(cat.result), cat_shape(cat.arg))


def unify_cat(a: Category, b: Category, s: Optional[Subst] = None) -> Optional[Subst]:
    """Shape-strict unification: identical slash skeletons and sorts,
    then term unification of the paired semantics, one call of unify per
    pair of atomics.  Two categories of different types (an atomic and a
    slash) fail at once."""
    if s is None:
        s = {}
    kind = type(a)
    if kind is not type(b):
        return None
    if kind is Atomic:
        if a.sort != b.sort:
            return None
        return unify(a.sem, b.sem, s)
    if kind is Slash:
        if a.dir != b.dir:
            return None
        s = unify_cat(a.result, b.result, s)
        if s is None:
            return None
        return unify_cat(a.arg, b.arg, s)
    return None


def standardize_apart(cat: Category, counter) -> Category:
    """Rename every variable to a fresh one drawn from counter (an iterator
    of ints), keeping the original name as a readable stem.  One pass:
    variables draw their numbers on first occurrence, atomics left to
    right, each term in children order (terms.Renamer)."""
    return map_sems(cat, Renamer(lambda stem: f"{stem}_{next(counter)}").rename)


def result_atomic(cat: Category) -> Atomic:
    while isinstance(cat, Slash):
        cat = cat.result
    return cat


def replace_result_sem(cat: Category, sem: Term) -> Category:
    if isinstance(cat, Atomic):
        return Atomic(cat.sort, sem)
    return Slash(cat.dir, replace_result_sem(cat.result, sem), cat.arg)


def canonical_cat(cat: Category) -> Category:
    """Canonical copy: one Renamer across the atomic terms, so two
    categories are variants iff their canonical copies are equal."""
    return map_sems(cat, Renamer().rename)


# --- textual syntax ---------------------------------------------------------

def parse_cat(text: str) -> Category:
    """The category text spells, read by token index (terms._Tokens).  An
    atomic written without a term gets the next of V'1, V'2, ..., left to
    right: names no text spells (module docstring)."""
    toks = _Tokens(text)
    try:
        cat = _cat(toks, (Var(f"V'{n}") for n in itertools.count(1)))
        if toks.toks[toks.i]:
            raise toks.error("trailing input")
    except TermError as e:
        raise CatError(str(e)) from None
    return cat


def _cat(toks: _Tokens, fresh: Iterator[Var]) -> Category:
    left = _part(toks, fresh)
    seq = toks.toks
    slash = seq[toks.i]
    while slash in ("/", "\\"):
        toks.i += 1
        left = Slash(slash, left, _part(toks, fresh))
        slash = seq[toks.i]
    return left


def _part(toks: _Tokens, fresh: Iterator[Var]) -> Category:
    seq, i = toks.toks, toks.i
    sort = seq[i]
    if sort == "(":
        toks.i = i + 1
        inner = _cat(toks, fresh)
        toks.expect(")")
        if seq[toks.i] == ":":
            raise toks.error("':' may only annotate an atomic category,")
        return inner
    if sort not in SORTS:
        if _NAME.match(sort) is None:
            raise toks.error("expected a name")
        raise toks.error(f"unknown sort {sort!r}")
    if seq[i + 1] == ":":
        toks.i = i + 2
        return Atomic(sort, parse_term_at(toks))
    toks.i = i + 1
    return Atomic(sort, next(fresh))


def format_cat(cat: Category, with_sems: bool = True) -> str:
    """Printed form: sorts, slashes, parentheses around every slash part,
    and each atomic's term after a colon unless with_sems is false.
    Iterative: an explicit stack lays out those pieces last piece first,
    which is the stack format_pieces prints from, in one pass."""
    pieces: list = []
    stack = [cat]
    pop, push, add = stack.pop, stack.append, pieces.append
    while stack:
        c = pop()
        kind = type(c)
        if kind is str:
            add(c)
        elif kind is Atomic:
            if with_sems:
                add(c.sem)
                add(c.sort + ":")
            else:
                add(c.sort)
        else:
            # The argument pops first, as pieces is the printed form
            # backwards; a Slash part goes inside parentheses.
            for part in (c.result, c.dir, c.arg):
                if type(part) is Slash:
                    push("(")
                    push(part)
                    push(")")
                else:
                    push(part)
    return format_pieces(pieces)


def cat_text(cat: Category) -> str:
    """The printed canonical copy.  For display: the CLI's parse and
    derive output, chart.pretty and lexicon messages.
    The chart and the lexicon compare cat_key.  Reading and eta-reducing
    (terms.apply_reduced) make no atom spelled like a variable, so the
    printed copy of a category read from text reads back (parse_cat) to
    one with the same key."""
    return format_cat(canonical_cat(cat))


def cat_key(cat: Category) -> tuple:
    """The identity of cat up to renaming of variables (module docstring):
    two categories have equal keys iff they are variants.  Replay and
    duplicate lexicon entries compare it, and so do chart cells, but only
    for a category that shares its cell with an item of its signature
    (chart, "Keys").  One iterative walk that builds no text."""
    out: list = []
    numbers: dict = {}  # Var.id -> first-occurrence number
    stack = [cat]
    pop, push, extend, emit = stack.pop, stack.append, stack.extend, out.append
    while stack:
        t = pop()
        kind = type(t)
        emit(kind)
        if kind is Var:
            n = numbers.get(t.id)
            if n is None:
                n = numbers[t.id] = len(numbers) + 1
            emit(n)
        elif kind is Compound:
            emit(t.functor)
            emit(len(t.args))
            extend(reversed(t.args))
        elif kind is Atom:
            emit(t.name)
        elif kind is Atomic:
            emit(t.sort)
            push(t.sem)
        elif kind is Slash:
            emit(t.dir)
            push(t.arg)
            push(t.result)
        elif kind is Lam:
            push(t.body)
            push(t.param)
        elif kind is Up:
            push(t.body)
        else:
            raise TermError(f"not a term: {t!r}")
    return tuple(out)
