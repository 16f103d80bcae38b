"""Quantifier-ordering baseline over predicate-argument skeletons.

A skeleton is a term whose quantified argument positions are marked
leaves q?(det, V, restriction); restrictions may embed further marked
leaves (complex NPs).  The baseline is the traditional method: every
linear order of the marked quantifiers as a nested q-<det> form, less the
forms that leave a variable unbound (the unbound variable constraint).
`enumerate_orderings` counts the orders and generates only the closed
ones (Orderings), and `uvc_filter` checks each form it is given.
`compare` relates the surviving forms to the readings the grammar
actually derives for the same sentence.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import permutations
from typing import Iterable, Iterator, List, Optional, Tuple

from .chart import ResourceError
from .lexicon import Lexicon, default_lexicon
from .readings import Occurrence, Reading, occurrences, profile_of, readings
from .terms import (
    QUANT_PREFIX,
    Atom,
    Compound,
    Term,
    Var,
    children,
    free_vars,
    parse_term,
    subterms,
    with_children,
)

MARK = "q?"
# Work budget: compare builds the forms of at most this many closed orders
# (8!, the most forms an 8-quantifier skeleton has) and refuses a skeleton
# with more, with ResourceError, before it builds any.
MAX_SURVIVORS = 40_320


class BaselineError(Exception):
    """Raised for malformed skeletons."""


@dataclass(frozen=True)
class Leaf:
    det: str
    var: Var
    restriction: Term


def _is_mark(t: Term) -> bool:
    return isinstance(t, Compound) and t.functor == MARK


def parse_skeleton(text: str) -> Term:
    sk = parse_term(text)
    seen = set()
    for leaf in skeleton_leaves(sk):
        if leaf.var in seen:
            raise BaselineError(f"marked leaves share the variable {leaf.var.id}")
        seen.add(leaf.var)
    return sk


def skeleton_leaves(sk: Term) -> List[Leaf]:
    """Marked quantifier leaves in preorder (outer before embedded)."""
    out: List[Leaf] = []
    for t in subterms(sk):
        if _is_mark(t):
            if len(t.args) != 3 or not isinstance(t.args[0], Atom) \
                    or not isinstance(t.args[1], Var):
                raise BaselineError(f"bad marked leaf {t!r}")
            out.append(Leaf(t.args[0].name, t.args[1], t.args[2]))
    return out


def _erase(t: Term) -> Term:
    """Replace every marked leaf by its variable."""
    if _is_mark(t):
        return t.args[1]
    return with_children(t, [_erase(k) for k in children(t)])


def _hosts(leaves: List[Leaf]) -> dict:
    """Map each embedded leaf's variable to its innermost host's variable."""
    host = {}
    for leaf in leaves:  # preorder: an inner host overwrites an outer one
        for t in subterms(leaf.restriction):
            if _is_mark(t):
                host[t.args[1]] = leaf.var
    return host


class Orderings:
    """Every linear order of a skeleton's marked quantifiers as a nested
    q-<det> form: counted at once, built on demand.

    Quantifiers are applied in sequence, outermost last, each carrying its
    own (erased) restriction.  A quantifier whose leaf sits inside another
    leaf's restriction is still open for application right when its host's
    turn comes, so when it immediately follows the host in the order its
    q-form lands inside the host's restriction; in every other position it
    joins the top-level nest around the predicate core.

    len() is the number of orders, n!.  Iterating builds every order's
    form, closed or not, in itertools.permutations order.  closed() builds
    only the closed orders' forms, in that same order.
    """

    def __init__(self, sk: Term):
        self._leaves = skeleton_leaves(sk)
        # len() must be an index-sized int; no 32-token sentence has this
        # many quantifiers.
        if math.factorial(len(self._leaves)) > sys.maxsize:
            raise ResourceError(f"{len(self._leaves)} quantifiers have too many orders to count")
        self._core = _erase(sk)
        self._erased = [_erase(leaf.restriction) for leaf in self._leaves]
        index = {leaf.var: i for i, leaf in enumerate(self._leaves)}
        host = _hosts(self._leaves)
        self._host = [index.get(host.get(leaf.var), -1) for leaf in self._leaves]

    def __len__(self) -> int:
        return math.factorial(len(self._leaves))

    def __iter__(self) -> Iterator[Term]:
        return map(self._form, permutations(range(len(self._leaves))))

    def closed(self) -> Iterator[Term]:
        """The closed orders' forms.  Every closed order is found before the
        first form is built, so a ResourceError comes before any form."""
        yield from map(self._form, self._closed_orders())

    def _q(self, i: int, restriction: Term, body: Term) -> Term:
        leaf = self._leaves[i]
        return Compound(QUANT_PREFIX + leaf.det, (leaf.var, restriction, body))

    def _form(self, order: Tuple[int, ...]) -> Term:
        """The form of one order, given as leaf indices."""
        restr = list(self._erased)  # the folding below rewrites host entries
        pending = list(order)
        for i in range(len(pending) - 1, 0, -1):
            guest, h = pending[i], pending[i - 1]
            if self._host[guest] == h:
                restr[h] = self._q(guest, restr[guest], restr[h])
                del pending[i]
        t = self._core
        for i in reversed(pending):
            t = self._q(i, restr[i], t)
        return t

    def _closed_orders(self) -> List[Tuple[int, ...]]:
        """The closed orders as leaf-index tuples, in permutations order.

        Orders grow one leaf at a time, and a prefix is cut as soon as a
        variable it places can no longer be bound.  A form is a nest of
        runs: a leaf right after its innermost host folds into the host's
        restriction and continues its run; any other leaf heads a run.  A
        variable free in the core is bound exactly when its leaf heads a
        run.  One free in leaf y's erased restriction is bound exactly when
        its leaf comes before y and heads a run or shares y's run, or comes
        right after y and folds into it.  Where variables occur only at
        their leaves, that says: an embedded quantifier binds its variable
        exactly when it comes before its innermost host or right after it.
        So at most one of a host's guests may come right after it, and no
        guest later.  Each check runs when the later of the two leaves it
        relates is placed.

        ResourceError when there are more than MAX_SURVIVORS closed orders,
        or when the search tries more than n * MAX_SURVIVORS extensions,
        which no skeleton of 8 or fewer quantifiers can need (e * 8! tries
        at most).
        """
        n, host = len(self._leaves), self._host
        core = n
        leaf_of = {leaf.var: i for i, leaf in enumerate(self._leaves)}
        needs: List[set] = [set() for _ in range(n)]  # regions each must bind
        for region, term in enumerate(self._erased + [self._core]):
            for v in free_vars(term):
                if v not in leaf_of:
                    return []  # no quantifier binds it: every order is open
                if leaf_of[v] != region:
                    needs[leaf_of[v]].add(region)
        needed_by = [[x for x in range(n) if y in needs[x]] for y in range(n)]
        placed, head, run = [False] * n, [False] * n, [0] * n
        order: List[int] = []
        found: List[Tuple[int, ...]] = []
        tries = n * MAX_SURVIVORS

        def extend() -> None:
            nonlocal tries
            k = len(order)
            if k == n:
                if len(found) == MAX_SURVIVORS:
                    raise ResourceError(
                        f"{n} quantifiers have more than {MAX_SURVIVORS} closed orders")
                found.append(tuple(order))
                return
            pred = order[-1] if order else None
            # A leaf still unplaced that must bind in pred's restriction
            # can only come next.  This cut only comes early: the checks
            # below refuse the same orders once that leaf is placed.
            due = [x for x in needed_by[pred] if not placed[x]] if order else None
            for e in due or range(n):
                if placed[e]:
                    continue
                tries -= 1
                if tries < 0:
                    raise ResourceError(f"the closed orders of {n} quantifiers take "
                                        f"more than {n * MAX_SURVIVORS} steps to find")
                folds = host[e] == pred
                if any(folds if y == core else placed[y] and not (folds and y == pred)
                       for y in needs[e]):
                    continue
                r = run[pred] if folds else k
                if not all(head[x] or run[x] == r for x in needed_by[e] if placed[x]):
                    continue
                placed[e], head[e], run[e] = True, not folds, r
                order.append(e)
                extend()
                order.pop()
                placed[e] = False

        extend()
        return found


def enumerate_orderings(sk: Term) -> Orderings:
    """Every linear order of the marked quantifiers, counted (see
    Orderings).  Nothing is built or filtered here."""
    return Orderings(sk)


def uvc_filter(forms: Iterable[Term]) -> List[Term]:
    """The closed forms among forms."""
    return [f for f in forms if not free_vars(f)]


def nesting_order(form: Term) -> Tuple[str, ...]:
    """Determiners of a scoped form in preorder, outermost first."""
    return tuple(t.functor[len(QUANT_PREFIX):] for t in subterms(form)
                 if isinstance(t, Compound) and t.functor.startswith(QUANT_PREFIX))


@dataclass(frozen=True)
class CompareReport:
    tokens: Tuple[str, ...]
    enumerated: Orderings   # only its len(), n!, is read outside this module
    survivors: Tuple[Term, ...]
    ccg: Tuple[Reading, ...]
    gap: Tuple[Term, ...]   # UVC-surviving forms no derived reading realizes


def _labels(occs: List[Occurrence]) -> tuple:
    # A multiset: each label as often as a quantifier carries it.
    return tuple(sorted(o.label for o in occs))


def _shown(labels: tuple) -> str:
    return "{" + ", ".join(labels) + "}"


def _check_labels(form: Term, derived: List[List[Occurrence]]) -> None:
    """Raise BaselineError when the skeleton's quantifiers are not the
    sentence's: scope profiles name quantifiers by label, so a mismatch
    would leave every order unrealized.  derived holds each reading's
    occurrences."""
    want = _labels(occurrences(form))
    for occs in derived:
        got = _labels(occs)
        if got != want:
            raise BaselineError(
                f"skeleton quantifiers {_shown(want)} do not match "
                f"the sentence's {_shown(got)}")


def compare(tokens, sk: Term, lexicon: Optional[Lexicon] = None) -> CompareReport:
    """Baseline orders vs derived readings, matched on scope profiles.

    The orders are counted, and only the closed ones are built (see
    Orderings); uvc_filter checks each of those.  A derived reading
    realizes a baseline form when every scope pair the reading asserts
    also holds in the form; forms realized by no reading are the report's
    gap.  (A reading with residual set forms asserts fewer pairs and may
    realize several forms.)  Each surviving form and each reading is
    walked for its occurrences once, so matching costs one profile per
    form, not one per (form, reading) pair.  A skeleton whose quantifier
    labels differ from a reading's does not fit the sentence and raises
    BaselineError; the check reads the form of the first order.
    """
    forms = enumerate_orderings(sk)
    survivors = uvc_filter(forms.closed())
    derived = readings(tokens, lexicon or default_lexicon())
    derived_occs = [occurrences(r.term) for r in derived]
    _check_labels(next(iter(forms)), derived_occs)
    profiles = [profile_of(occs) for occs in derived_occs]
    gap = [f for f, fp in zip(survivors, (profile_of(occurrences(f)) for f in survivors))
           if not any(p <= fp for p in profiles)]
    return CompareReport(tuple(tokens), forms, tuple(survivors),
                         tuple(derived), tuple(gap))


def factorial_count(sk: Term) -> int:
    """Product over functions of (number of quantified argument slots)!

    An argument slot counts as quantified when the argument contains a
    marked leaf or is itself the variable of one.
    """
    leaf_vars = {leaf.var for leaf in skeleton_leaves(sk)}

    def has_mark(t: Term) -> bool:
        return any(_is_mark(n) for n in subterms(t))

    total = 1
    for t in subterms(sk):
        if isinstance(t, Compound) and not _is_mark(t):
            total *= math.factorial(
                sum(1 for a in t.args if has_mark(a) or a in leaf_vars))
    return total
