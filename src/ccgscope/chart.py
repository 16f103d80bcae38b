"""CKY chart over four binary rules: application and composition both ways.

Forward composition handles degree 2 (X/Y + (Y/Z)/W) so a raised subject
can compose into a ditransitive verb; backward composition is degree 1.
Unconsumed argument slots ride through composition only under
`passes_through`.  Raising is entirely lexical, so no unary rules appear
here.  Cells deduplicate by canonicalized category, merging backpointers
into a packed forest.  Every category in the chart is in canonical form:
lexical entries enter in their chart form (LexEntry.chart_cat, computed
once per entry), and the rules build their results with subst_cat, which
follows the unifier and canonicalizes in one walk.  So cells deduplicate
modulo the associativity of and/2: the bracketings of a coordination
share one item, and an n-conjunct cluster keeps its scopings instead of
Catalan-many copies.  The walk returns at once every subterm whose
recorded variables the unifier leaves unbound (terms.apply_reduced), so
a rule result costs the part of its operands that the unifier reaches,
not the whole of them.

parse runs in two passes over one statement of the rules: the rows of
ROWS, which read the Slash tuple that categories and their shapes share.
The first pass works on shapes alone (cat_shape: sorts and slash
skeletons, no terms, no unification).  An inside CKY pass over ROWS
finds every (span, shape) the lexical shapes can build, and an outside
pass marks those that lie on a shape derivation of some full-span shape.
The second pass, closure proper, builds only the lexical and rule items
whose (span, shape) is marked, and tries only the pairs and rules of the
edges into marked shapes.  When no shape spans the input, everything is
marked and the chart is the whole all-pairs chart, so a failed parse
keeps every constituent.

Why pruning loses nothing: a row reads its operands through slash
directions, results, arguments and passes_through, which sees sorts and
slashes only, so its ask, offer and build give on a category's shape
the shape of what they give on the category.  On categories a row
succeeds only where unify_cat unifies ask(left) with offer(right), and
unify_cat fails on any two categories whose shapes differ; its result is
subst_cat of build(left, right), and subst_cat keeps shapes.  So every
rule success on two items is the same row's result on their shapes, and
every item of a full-span derivation has a marked (span, shape).  Every
item some full-span item reaches is built, with all its backpointers in
the same order as the all-pairs closure would give them, so readings,
derivations and their order do not change.  Charts larger than
MAX_ITEMS items are refused with ResourceError.

The grammar has one constraint beyond unification: a quantifier
q-<det>(V, R, B) binds a variable.  A rule fails, as it does when
unify_cat fails, when its result would bind a quantifier's variable to a
non-variable: subst_cat (terms.apply_reduced) raises QuantifierSlotError
while it builds the result, and _combine returns None.  Such a
constituent has no interpretation, and substitution never turns its slot
back into a variable, so every item built from it carries the ill-formed
quantifier too, unless some functor discards the semantics holding it.
The check runs in the walk that builds every rule result, so parse,
replay and check_backpointers agree on it.  load_lexicon refuses a
written category that holds such a quantifier, so no item of a chart
built from a loaded lexicon holds one, and the readings layer does not
look for one.

Why this loses no reading of the bundled fragment: in fragment.lex the
argument semantics a functor discards are number variables (bound only
to numbers and to each other), comma:C, and at the last argument of the
cluster coordinators but/and the verb slot's S, Y and Z, which the two
conjunct clusters have already threaded into P and Q.  None of these
discards a quantifier.  The tests compare the readings, multiplicities
and order with those of an all-pairs closure that keeps the ill-formed
constituents.  A user lexicon can discard one, as x :: s:ok/s:Q does;
there the derivations through it are gone (see README).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple, Union

from .categories import (
    Category,
    Slash,
    cat_key,
    cat_shape,
    standardize_apart,
    subst_cat,
    unify_cat,
)
from .lexicon import Lexicon, UnknownTokenError
# Not called here: lexical entries bring their chart form
# (LexEntry.chart_cat).  perfbench/tracing.py patches this name.
from .terms import eta_reduce_sets  # noqa: F401
from .terms import QuantifierSlotError

MAX_TOKENS = 32
# Work budget: a chart that would grow past this many items is refused
# rather than closed.  It counts built items only, after pruning.  The
# largest chart the tests build is a 26-token depth-7 PP chain (8,697
# items; the all-pairs chart would pass 20,000); the benchmark's largest
# is a depth-4 PP chain (428 items).
MAX_ITEMS = 20_000


class ChartError(Exception):
    """A derivation failed to replay; signals an engine bug."""


class ResourceError(Exception):
    """Input exceeds a hard engine limit."""


@dataclass
class Item:
    id: int
    span: Tuple[int, int]
    cat: Category
    backs: List[tuple] = field(default_factory=list)
    shape: Union[str, Slash] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.shape = cat_shape(self.cat)


def passes_through(x) -> bool:
    """May an argument slot, a category or a cat_shape, ride through a
    composition?

    Allowed: an np, or a predicate spine — a complex category all of
    whose spine arguments are atomic np and whose final result has sort
    s.  Everything else (bare s, sbar, noun modifiers, raised types)
    must be consumed by application before composing further.
    """
    if not isinstance(x, Slash):
        return _sort(x) == "np"
    while isinstance(x, Slash) and _sort(x.arg) == "np":
        x = x.result
    return _sort(x) == "s"


def _sort(x) -> Optional[str]:
    """The sort of an atomic category or shape; None for a slash."""
    if isinstance(x, Slash):
        return None
    return x if type(x) is str else x.sort


def _arg(x, dir: str):
    """x's argument, if x is a slash of direction dir."""
    return x.arg if isinstance(x, Slash) and x.dir == dir else None


def _through(x, dir: str):
    """x's result, if x is a slash of direction dir whose argument passes
    through."""
    if isinstance(x, Slash) and x.dir == dir and passes_through(x.arg):
        return x.result
    return None


# The four rules, stated once for categories and shapes alike.  A row is
# (label, ask, offer, build): ask(left) is the part of the left operand
# that must match offer(right), the part of the right operand (None: the
# row does not apply), and build(left, right) is the result before the
# match is applied.  On shapes a match is equality (_partners); on
# categories it is unify_cat, and the result is subst_cat of the built
# category under the unifier (_combine).
ROWS = (
    # X/Y + Y -> X
    (">", lambda left: _arg(left, "/"), lambda right: right,
     lambda left, right: left.result),
    # Y + X\Y -> X
    ("<", lambda left: left, lambda right: _arg(right, "\\"),
     lambda left, right: right.result),
    # X/Y + Y/Z -> X/Z
    (">B", lambda left: _arg(left, "/"), lambda right: _through(right, "/"),
     lambda left, right: Slash("/", left.result, right.arg)),
    # X/Y + (Y/Z)/W -> (X/Z)/W
    (">B", lambda left: _arg(left, "/"),
     lambda right: _through(_through(right, "/"), "/"),
     lambda left, right: Slash("/", Slash("/", left.result, right.result.arg),
                               right.arg)),
    # Y\Z + X\Y -> X\Z
    ("<B", lambda left: _through(left, "\\"), lambda right: _arg(right, "\\"),
     lambda left, right: Slash("\\", right.result, left.arg)),
)


def _combine(label: str, left: Category, right: Category) -> Optional[Category]:
    """The result of the rule label on two categories, or None.  A rule's
    rows never match the same pair of shapes, so at most one succeeds.
    A rule also fails when its result would bind a quantifier's variable
    to a non-variable (subst_cat raises QuantifierSlotError)."""
    for row_label, ask, offer, build in ROWS:
        if row_label != label:
            continue
        want, got = ask(left), offer(right)
        if want is None or got is None:
            continue
        s = unify_cat(want, got)
        if s is not None:
            try:
                return subst_cat(s, build(left, right))
            except QuantifierSlotError:
                return None
    return None


def fwd_apply(left: Category, right: Category) -> Optional[Category]:
    """Forward application: the rows of ROWS labelled '>'."""
    return _combine(">", left, right)


def bwd_apply(left: Category, right: Category) -> Optional[Category]:
    """Backward application: the rows of ROWS labelled '<'."""
    return _combine("<", left, right)


def fwd_compose(left: Category, right: Category) -> Optional[Category]:
    """Forward composition, degree 1 or 2: the rows of ROWS labelled '>B'."""
    return _combine(">B", left, right)


def bwd_compose(left: Category, right: Category) -> Optional[Category]:
    """Backward composition, degree 1: the rows of ROWS labelled '<B'."""
    return _combine("<B", left, right)


RULES = (
    (">", fwd_apply),
    ("<", bwd_apply),
    (">B", fwd_compose),
    ("<B", bwd_compose),
)


def _asks(shape) -> tuple:
    """The shape's ask under each row of ROWS, as a left operand."""
    return tuple(ask(shape) for _, ask, _, _ in ROWS)


def _offers(shape) -> tuple:
    """The shape's offer under each row of ROWS, as a right operand."""
    return tuple(offer(shape) for _, _, offer, _ in ROWS)


def _index(shapes, offers: dict) -> List[dict]:
    """Per row of ROWS, the given right shapes filed under the part each
    offers.  offers maps a shape to its _offers, and gains the missing."""
    index: List[dict] = [{} for _ in ROWS]
    for shape in shapes:
        keys = offers.get(shape)
        if keys is None:
            keys = offers[shape] = _offers(shape)
        for table, key in zip(index, keys):
            if key is not None:
                table.setdefault(key, []).append(shape)
    return index


def _partners(left, asks: tuple, index: List[dict]) -> Iterator[tuple]:
    """(right shape, label, result shape) for every row under which the
    left shape, whose _asks are asks, combines with a right shape of the
    indexed cell."""
    for table, key, (label, _, _, build) in zip(index, asks, ROWS):
        if key is not None:
            for right in table.get(key, ()):
                yield right, label, build(left, right)


def _live_edges(n: int, lexical: Dict[Tuple[int, int], list]) -> Tuple[set, dict]:
    """The shape backbone of the chart: which constituents can reach a
    full-span item.

    An inside CKY pass over shapes alone finds every (span, shape) some
    shape derivation builds from the lexical shapes, with the (split, left
    shape, right shape, label) edges that build it.  An outside pass then
    marks each (span, shape) that lies on a shape derivation of a
    full-span shape (of any shape: every full-span item is output), or
    every one when no shape spans the input.  Returns the marked (span,
    shape) pairs and, per (i, j, k), the edges into marked shapes of (i, j)
    as {left shape: {right shape: labels}}.
    """
    inside: Dict[Tuple[int, int], dict] = {
        span: dict.fromkeys(shapes, ()) for span, shapes in lexical.items()}
    indexes: Dict[Tuple[int, int], List[dict]] = {}
    # Each shape's asks and offers, computed once per call.
    asks: dict = {}
    offers: dict = {}
    for width in range(2, n + 1):
        for i in range(0, n - width + 1):
            j = i + width
            cell: dict = {}
            for k in range(i + 1, j):
                left_cell, right_cell = inside.get((i, k)), inside.get((k, j))
                if not left_cell or not right_cell:
                    continue
                index = indexes.get((k, j))
                if index is None:
                    index = indexes[(k, j)] = _index(right_cell, offers)
                for left in left_cell:
                    keys = asks.get(left)
                    if keys is None:
                        keys = asks[left] = _asks(left)
                    for right, label, out in _partners(left, keys, index):
                        cell.setdefault(out, []).append((k, left, right, label))
            if cell:
                for shape, edges in inside.get((i, j), {}).items():
                    cell.setdefault(shape, []).extend(edges)
                inside[(i, j)] = cell

    if inside.get((0, n)):
        live = {((0, n), shape) for shape in inside[(0, n)]}
    else:
        live = {(span, shape) for span, cell in inside.items() for shape in cell}
    edges: dict = {}
    for width in range(n, 1, -1):
        for i in range(0, n - width + 1):
            span = (i, i + width)
            for shape, backs in inside.get(span, {}).items():
                if (span, shape) not in live:
                    continue
                for k, left, right, label in backs:
                    live.add(((i, k), left))
                    live.add(((k, span[1]), right))
                    edges.setdefault((i, span[1], k), {}).setdefault(left, {}) \
                        .setdefault(right, set()).add(label)
    return live, edges


@dataclass
class Chart:
    tokens: Tuple[str, ...]
    cells: Dict[Tuple[int, int], Dict[str, Item]]
    items: Dict[int, Item]

    def cell(self, i: int, j: int) -> List[Item]:
        return list(self.cells.get((i, j), {}).values())

    def full_span(self) -> List[Item]:
        return self.cell(0, len(self.tokens))


def parse(tokens, lexicon: Lexicon) -> Chart:
    """Close the chart over the four rules; every token must be covered.

    Only the constituents whose (span, shape) _live_edges marks are
    built, from the edges it keeps."""
    tokens = tuple(tokens)
    if len(tokens) > MAX_TOKENS:
        raise ResourceError(
            f"{len(tokens)} tokens exceeds the {MAX_TOKENS}-token limit")
    if not tokens:
        raise UnknownTokenError("empty input")
    n = len(tokens)
    chart = Chart(tokens, {}, {})

    def add(span, cat, back):
        cell = chart.cells.setdefault(span, {})
        key = cat_key(cat)
        item = cell.get(key)
        if item is None:
            if len(chart.items) >= MAX_ITEMS:
                raise ResourceError(
                    f"chart exceeds the {MAX_ITEMS}-item work budget")
            item = Item(len(chart.items) + 1, span, cat, [back])
            chart.items[item.id] = item
            cell[key] = item
        elif back not in item.backs:
            item.backs.append(back)

    covered = [False] * n
    lexical = []
    for i in range(n):
        try:
            matches = lexicon.lookup(tokens, i)
        except UnknownTokenError:
            continue
        for entry, k in matches:
            lexical.append(((i, i + k), entry))
            for p in range(i, i + k):
                covered[p] = True
    for i, ok in enumerate(covered):
        if not ok:
            raise lexicon.unknown_token(tokens, i)

    shapes: Dict[Tuple[int, int], list] = {}
    for span, entry in lexical:
        shapes.setdefault(span, []).append(entry.shape)
    live, edges = _live_edges(n, shapes)
    for span, entry in lexical:
        if (span, entry.shape) in live:
            add(span, lexicon.fresh(entry.chart_cat), ("lex", entry.tag))

    for width in range(2, n + 1):
        for i in range(0, n - width + 1):
            j = i + width
            for k in range(i + 1, j):
                wanted = edges.get((i, j, k))
                if not wanted:
                    continue
                # Both cells hold their items in id order, so backpointers
                # arrive in the order the all-pairs closure gives them.
                for lit in chart.cells.get((i, k), {}).values():
                    want = wanted.get(lit.shape)
                    if not want:
                        continue
                    for rit in chart.cells.get((k, j), {}).values():
                        labels = want.get(rit.shape)
                        if labels:
                            for label, rule in RULES:
                                if label in labels:
                                    out = rule(lit.cat, rit.cat)
                                    if out is not None:
                                        add((i, j), out, (label, lit.id, rit.id))
    return chart


def count_derivations(chart: Chart) -> Dict[int, int]:
    """Derivation count per item id over the packed forest.  A rule
    backpointer names two items of smaller widths, which closure built
    before the item, so their ids are smaller: one pass in id order finds
    both counts ready."""
    counts: Dict[int, int] = {}
    for i in sorted(chart.items):
        total = 0
        for back in chart.items[i].backs:
            total += 1 if back[0] == "lex" else counts[back[1]] * counts[back[2]]
        counts[i] = total
    return counts


def derivations(chart: Chart, item: Item) -> Iterator[tuple]:
    """All derivation trees of item: ("lex", tag, item) | (label, l, r, item)."""
    for back in item.backs:
        if back[0] == "lex":
            yield ("lex", back[1], item)
        else:
            label, li, ri = back
            for lt in derivations(chart, chart.items[li]):
                for rt in derivations(chart, chart.items[ri]):
                    yield (label, lt, rt, item)


def _replay_step(label: str, left: Category, right: Category, item: Item,
                 key: str, counter) -> Category:
    """Recombine two child categories by label; ChartError unless the result
    has key, item's stored cat_key."""
    lcat = standardize_apart(left, counter)
    rcat = standardize_apart(right, counter)
    out = _combine(label, lcat, rcat)
    if out is None:
        raise ChartError(f"rule {label} failed to replay at {item.span}")
    got = cat_key(out)
    if got != key:
        raise ChartError(
            f"replayed category differs at {item.span}: {got} vs {key}")
    return out


def replay(tree) -> Category:
    """Recompute a derivation bottom-up, checking each stored category.

    Children are standardized apart before combining, as Lexicon.fresh
    renames lexical entries for parse.  Raises ChartError on any mismatch.
    """
    counter = itertools.count(1)

    def go(t) -> Category:
        if t[0] == "lex":
            return t[2].cat
        label, lt, rt, item = t
        return _replay_step(label, go(lt), go(rt), item, cat_key(item.cat),
                            counter)

    return go(tree)


def check_backpointers(chart: Chart) -> None:
    """Replay every rule backpointer of every item once, from the stored
    categories of its children.  Raises ChartError on any mismatch.

    This checks every derivation tree of the chart, and more.  At each
    node, replay(tree) applies the rule to the categories replayed for the
    children; each of those has its stored child's cat_key, so it is that
    category up to renaming of variables, and rules and cat_key do not see
    renaming.  So each node's check in replay is one backpointer's check
    here, and a tree replays exactly when all its backpointers pass.
    Items outside the full span are checked too.
    """
    counter = itertools.count(1)
    for item in chart.items.values():
        key = None
        for back in item.backs:
            if back[0] != "lex":
                if key is None:
                    key = cat_key(item.cat)
                label, li, ri = back
                _replay_step(label, chart.items[li].cat, chart.items[ri].cat,
                             item, key, counter)


def pretty(chart: Chart, tree) -> str:
    """One line per constituent: tokens, canonical category, rule label."""
    lines: List[str] = []

    def go(t, depth):
        item = t[-1]
        i, j = item.span
        label = t[0]
        lines.append("%s%s  ::  %s  [%s]"
                     % ("  " * depth, " ".join(chart.tokens[i:j]),
                        cat_key(item.cat), label))
        if label != "lex":
            go(t[1], depth + 1)
            go(t[2], depth + 1)

    go(tree, 0)
    return "\n".join(lines)
