"""Quantifier-ordering baseline over predicate-argument skeletons.

A skeleton is a term whose quantified argument positions are marked
leaves q?(det, V, restriction); restrictions may embed further marked
leaves (complex NPs).  The baseline is the traditional method: every
linear order of the marked quantifiers as a nested q-<det> form, less the
forms that leave a variable unbound (the unbound variable constraint).
A skeleton is read in one walk (_parts), which gives its core, its
leaves, each leaf's host and each leaf's erased restriction.
`enumerate_orderings` counts the orders (Orderings), whose public
closed_orders() and form() find the closed ones and build their forms,
and `uvc_filter` checks each form it is given.  `compare` relates the
surviving forms to the readings the grammar actually derives for the
same sentence, through those two methods and profile() alone.
"""

from __future__ import annotations

import math
import sys
from itertools import permutations
from typing import Iterable, Iterator, List, NamedTuple, Optional, Tuple

from .chart import ResourceError
from .lexicon import Lexicon, default_lexicon
from .readings import Reading, _head_noun, labels, occurrences, profile_of, readings
from .terms import (
    QUANT_PREFIX,
    Atom,
    Compound,
    Term,
    Var,
    children,
    format_term,
    free_vars,
    is_quant,
    is_set_form,
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


class Leaf(NamedTuple):
    det: str
    var: Var
    restriction: Term


def parse_skeleton(text: str) -> Term:
    sk = parse_term(text)
    seen = set()
    for leaf in skeleton_leaves(sk):
        if leaf.var in seen:
            raise BaselineError(f"marked leaves share the variable {leaf.var.id}")
        seen.add(leaf.var)
    return sk


def skeleton_leaves(sk: Term) -> List[Leaf]:
    """Marked quantifier leaves in preorder (outer before embedded); see
    _parts for what a skeleton may not hold."""
    return _parts(sk)[1]


def _parts(sk: Term) -> Tuple[Term, List[Leaf], List[int], List[Term]]:
    """A skeleton read in one walk: its core, with every marked leaf
    replaced by its variable; its marked leaves in preorder (outer before
    embedded); each leaf's innermost host, the leaf whose restriction
    holds it nearest, as a leaf index, or -1; and each leaf's restriction,
    erased as the core is.

    A skeleton's quantifiers are its marked leaves, so a quantifier or a
    set form anywhere else in it raises BaselineError, at the first in
    preorder: its forms would hold scope that no order places."""
    leaves: List[Leaf] = []
    host: List[int] = []
    erased: List[Term] = []

    def erase(t: Term, within: int) -> Term:
        if isinstance(t, Compound) and t.functor == MARK:
            if len(t.args) != 3 or not isinstance(t.args[0], Atom) \
                    or not isinstance(t.args[1], Var):
                raise BaselineError(f"bad marked leaf {format_term(t)}: a marked leaf"
                                    f" must be {MARK}(det, Var, restriction)")
            i = len(leaves)
            leaves.append(Leaf(t.args[0].name, t.args[1], t.args[2]))
            host.append(within)
            erased.append(None)  # set once its restriction's walk returns
            erased[i] = erase(t.args[2], i)
            return t.args[1]
        if is_quant(t) or is_set_form(t):
            kind = "quantifier" if is_quant(t) else "set form"
            raise BaselineError(f"unmarked {kind} {format_term(t)} in a skeleton:"
                                f" mark each quantifier {MARK}(det, Var, restriction)")
        kids = []
        for k in children(t):  # a loop, not a comprehension: one frame a level
            kids.append(erase(k, within))
        return with_children(t, kids)

    return erase(sk, -1), leaves, host, erased


class Orderings:
    """Every linear order of a skeleton's marked quantifiers as a nested
    q-<det> form: counted at once, built on demand.

    Quantifiers are applied in sequence, outermost last, each carrying its
    own (erased) restriction.  A quantifier whose leaf sits inside another
    leaf's restriction is still open for application right when its host's
    turn comes, so when it immediately follows the host in the order its
    q-form lands inside the host's restriction; in every other position it
    joins the top-level nest around the predicate core.

    So a form is a nest of runs: a leaf right after its innermost host
    folds into the host's restriction and continues the host's run, and
    any other leaf heads a run of its own.  A run head outscopes every
    leaf after it in the order; a folded guest outscopes only the rest of
    its own run.  profile() reads an order's scope profile off its runs,
    without building or walking its form.

    The skeleton is read in one walk (_parts).  len() is the number of
    orders, n!.  Iterating builds every order's form, closed or not, in
    itertools.permutations order: the traditional method itself.
    closed_orders() finds only the closed orders, in that same order, and
    form(order) builds one order's form.  labels names each leaf as
    readings.occurrences names a quantifier (readings.labels), with the
    head noun of its erased restriction.
    """

    def __init__(self, sk: Term):
        self._core, self._leaves, self._host, self._erased = _parts(sk)
        # len() must be an index-sized int; no 32-token sentence has this
        # many quantifiers.
        if math.factorial(len(self._leaves)) > sys.maxsize:
            raise ResourceError(f"{len(self._leaves)} quantifiers have too many orders to count")
        self.labels = tuple(labels([(leaf.det, _head_noun(restriction, leaf.var))
                                    for leaf, restriction in zip(self._leaves, self._erased)]))

    def __len__(self) -> int:
        return math.factorial(len(self._leaves))

    def __iter__(self) -> Iterator[Term]:
        return map(self.form, permutations(range(len(self._leaves))))

    def profile(self, order: Tuple[int, ...]) -> frozenset:
        """The scope profile of one order's form, given as leaf indices:
        what readings.scope_profile gives for the form, with each
        quantifier named by its leaf's label."""
        labels, host = self.labels, self._host
        pairs = set()
        end = len(order)  # where the run holding position k ends
        for k in range(len(order) - 1, -1, -1):
            outer = labels[order[k]]
            if k and host[order[k]] == order[k - 1]:
                pairs.update((outer, labels[x]) for x in order[k + 1:end])
            else:
                pairs.update((outer, labels[x]) for x in order[k + 1:])
                end = k
        return frozenset(pairs)

    def _q(self, i: int, restriction: Term, body: Term) -> Term:
        leaf = self._leaves[i]
        return Compound(QUANT_PREFIX + leaf.det, (leaf.var, restriction, body))

    def form(self, order: Tuple[int, ...]) -> Term:
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

    def closed_orders(self) -> List[Tuple[int, ...]]:
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
        relates is placed.  Where no leaf has a host and every leaf's
        variable is free in the core alone (independent quantifiers, clause
        embeddings), every order is closed, and they are returned without
        the search.

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
        if all(h < 0 for h in host) and all(need <= {core} for need in needs):
            # Nothing folds and nothing cuts: every order is closed.
            if math.factorial(n) > MAX_SURVIVORS:
                raise ResourceError(
                    f"{n} quantifiers have more than {MAX_SURVIVORS} closed orders")
            return list(permutations(range(n)))
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
    return tuple(t.functor[len(QUANT_PREFIX):] for t in subterms(form) if is_quant(t))


class CompareReport(NamedTuple):
    tokens: Tuple[str, ...]
    enumerated: Orderings   # only its len(), n!, is read outside this module
    survivors: Tuple[Term, ...]
    ccg: Tuple[Reading, ...]
    gap: Tuple[Term, ...]   # UVC-surviving forms no derived reading realizes


def compare(tokens, sk: Term, lexicon: Optional[Lexicon] = None) -> CompareReport:
    """Baseline orders vs derived readings, matched on scope profiles.

    The orders are counted, and only the closed ones are found and built
    (Orderings.closed_orders and form); uvc_filter checks each of those.
    A derived reading realizes a baseline form when every scope pair the
    reading asserts also holds in the form; forms realized by no reading
    are the report's gap.  (A reading with residual set forms asserts
    fewer pairs and may realize several forms.)  Each reading is walked
    for its occurrences once, and each closed order's profile is read off
    its runs (Orderings.profile), so no form is walked for matching, and
    matching costs one profile per form, not one per (form, reading) pair.
    A skeleton whose quantifier labels (Orderings.labels) differ from a
    reading's does not fit the sentence and raises BaselineError.
    """
    forms = enumerate_orderings(sk)
    orders = forms.closed_orders()
    survivors = uvc_filter(map(forms.form, orders))
    derived = readings(tokens, lexicon or default_lexicon())
    derived_occs = [occurrences(r.term) for r in derived]
    # Scope profiles name quantifiers by label, so a skeleton whose labels
    # (a multiset) differ from a reading's would leave every order
    # unrealized.
    want = sorted(forms.labels)
    for occs in derived_occs:
        got = sorted(o.label for o in occs)
        if got != want:
            raise BaselineError(f"skeleton quantifiers {{{', '.join(want)}}} do not match"
                                f" the sentence's {{{', '.join(got)}}}")
    profiles = [profile_of(occs) for occs in derived_occs]
    # Every closed order's form survives, so survivors pair with orders.
    gap = [f for f, fp in zip(survivors, map(forms.profile, orders), strict=True)
           if not any(p <= fp for p in profiles)]
    return CompareReport(tuple(tokens), forms, tuple(survivors),
                         tuple(derived), tuple(gap))

