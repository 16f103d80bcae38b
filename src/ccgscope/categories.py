"""Directional categories whose atomic parts carry logical-form terms.

Syntax: slashes are left-associative, parentheses override, and a term
annotation ``:term`` may follow an atomic sort only.  Atomics written
without an annotation receive distinct fresh variables, left to right.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Optional, Union

from .terms import (
    Renamer,
    Subst,
    Term,
    TermError,
    Var,
    _Cursor,
    apply_reduced,
    format_term,
    parse_term_at,
    subterms,
    unify,
)

SORTS = ("s", "np", "n", "sbar", "comma")


class CatError(Exception):
    """Raised for unparseable or ill-formed category text."""


@dataclass(frozen=True)
class Atomic:
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
    itself, and each subcategory that does not change, is returned as is."""
    if isinstance(cat, Atomic):
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
    then term unification of the paired semantics."""
    if s is None:
        s = {}
    if isinstance(a, Atomic) and isinstance(b, Atomic):
        if a.sort != b.sort:
            return None
        return unify(a.sem, b.sem, s)
    if isinstance(a, Slash) and isinstance(b, Slash):
        if a.dir != b.dir:
            return None
        s = unify_cat(a.result, b.result, s)
        if s is None:
            return None
        return unify_cat(a.arg, b.arg, s)
    return None


def cat_vars(cat: Category) -> tuple:
    """Every variable occurring in the category's terms, first-occurrence order
    (lambda parameters included, as the Renamer treats them)."""
    return tuple(dict.fromkeys(
        n for at in atomics(cat) for n in subterms(at.sem) if isinstance(n, Var)))


def standardize_apart(cat: Category, counter) -> Category:
    """Rename every variable to a fresh one drawn from counter (an iterator
    of ints), keeping the original name as a readable stem.  One pass:
    variables draw their numbers on first occurrence, in cat_vars order."""
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

_BLANK = Var("")  # placeholder for atomics written without a term


def parse_cat(text: str) -> Category:
    cur = _Cursor(text)
    try:
        cat = _cat(cur)
    except TermError as e:
        raise CatError(str(e)) from None
    cur.skip_ws()
    if cur.pos != len(cur.text):
        raise CatError(f"trailing input at position {cur.pos}: {text!r}")
    return _fill_blanks(cat)


def _cat(cur: _Cursor) -> Category:
    left = _part(cur)
    while True:
        cur.skip_ws()
        ch = cur.peek()
        if ch in ("/", "\\"):
            cur.pos += 1
            right = _part(cur)
            left = Slash(ch, left, right)
        else:
            return left


def _part(cur: _Cursor) -> Category:
    cur.skip_ws()
    if cur.peek() == "(":
        cur.pos += 1
        inner = _cat(cur)
        cur.skip_ws()
        if cur.peek() != ")":
            raise CatError(f"expected ')' at position {cur.pos}: {cur.text!r}")
        cur.pos += 1
        cur.skip_ws()
        if cur.peek() == ":":
            raise CatError(
                f"':' may only annotate an atomic category, at position {cur.pos}: {cur.text!r}"
            )
        return inner
    start = cur.pos
    sort = cur.name()
    if sort not in SORTS:
        raise CatError(f"unknown sort {sort!r} at position {start}: {cur.text!r}")
    cur.skip_ws()
    if cur.peek() == ":":
        cur.pos += 1
        sem = parse_term_at(cur)
        return Atomic(sort, sem)
    return Atomic(sort, _BLANK)


def _fill_blanks(cat: Category) -> Category:
    used = {v.id for v in cat_vars(cat)}
    fresh = (Var(f"V{n}") for n in itertools.count(1) if f"V{n}" not in used)
    return map_sems(cat, lambda sem: next(fresh) if sem is _BLANK else sem)


def format_cat(cat: Category, with_sems: bool = True,
               renamer: Optional[Renamer] = None) -> str:
    """Printed form; a renamer shared across the atomic terms prints
    canonical variable names, as format_cat(canonical_cat(cat)) would."""
    if isinstance(cat, Atomic):
        if with_sems:
            return f"{cat.sort}:{format_term(cat.sem, renamer)}"
        return cat.sort

    def wrap(c: Category) -> str:
        inner = format_cat(c, with_sems, renamer)
        return f"({inner})" if isinstance(c, Slash) else inner

    return f"{wrap(cat.result)}{cat.dir}{wrap(cat.arg)}"


def cat_key(cat: Category) -> str:
    """The printed canonical copy (format_cat(canonical_cat(cat))), in one
    pass: two categories have the same key iff they are variants.  Chart
    cells, replay and duplicate lexicon entries are keyed by it."""
    return format_cat(cat, renamer=Renamer())
