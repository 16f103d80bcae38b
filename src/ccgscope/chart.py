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

Keys.  A cell maps cat_key, a tuple that encodes the canonical copy
node by node with each node's type, to its item, so variants share one
item and nothing else does; Chart.cells keeps that shape.  Keying is a
walk over the whole category, and most rule results duplicate an item,
nearly all of them equal as terms to a category the cell already holds.
So add first looks a result up by the category itself, in a dict local
to parse that holds, per span, every category keyed there (terms hash
and compare in C).  Equal categories have equal keys, so a hit is the
item cell.get(cat_key(cat)) would give, and ids and backpointers do not
change.  Only a miss is keyed: a new item, or a variant duplicate, which
is entered too.  A chart costs one cat_key per item plus one per variant
duplicate.  Over the corpus and the test families (test_chart's
KEYING_CASES) that is 8,990 keys for 8,749 items, where keying every
result took 16,825: 7,835 results were equal duplicates and 241 variants.
The key builds no text: cat_text prints a category for pretty, the CLI
and error messages, and nothing compares printed text.

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

Shape table.  The shape pass runs on ids, small ints that the table
_TABLE gives each distinct shape on first sight, and the table keeps one
memo: per pair of cells, keyed by the frozensets of their shape ids, the
edges between them, as {left id: {right id: {label: result id}}}.  A
miss works the entry out from ROWS on the shape values and stores it
once complete; the pass and closure read it as stored.  One memo is
enough because nearly every lookup hits: over seeds 1-10 the
coord_cluster, nested_scope and corpus_cli benchmarks look up 6,520 /
9,410 / 25,415 cell pairs, and only 64 / 65 / 163 of them miss, so the
asks, offers and row results a miss works out are not worth keeping on
their own.  The table is a function of ROWS and shape values alone,
never of a lexicon or a sentence, so one table serves every lexicon a
process loads and never goes stale.  parse clears it whole before it
starts when it holds more than MAX_SHAPE_TABLE entries, shapes plus
pairs, so ids never change during a parse; they never leave it either
(Item.shape is the shape itself).

Why pruning loses nothing: a row reads its operands through slash
directions, results, arguments and passes_through, which sees sorts and
slashes only, so its ask, offer and build give on a category's shape
the shape of what they give on the category.  On categories a row
succeeds only where unify_cat unifies ask(left) with offer(right), and
unify_cat fails on any two categories whose shapes differ; its result is
subst_cat of build(left, right), and subst_cat keeps shapes.  So every
rule success on two items is the same row's result on their shapes, and
every item of a full-span derivation has a marked (span, shape).  So too
an item's shape is its edge's result shape, and parse hands it to the
item (Item.shape) instead of walking the category again.  Every
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
    cat_text,
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
# is a depth-3 clause embedding (515 items, nested_scope at seeds 1-3).
MAX_ITEMS = 20_000


class ChartError(Exception):
    """A derivation failed to replay; signals an engine bug."""


class ResourceError(Exception):
    """Input exceeds a hard engine limit."""


@dataclass
class Item:
    """A chart constituent.  shape is cat_shape(cat), handed in by parse:
    a lexical item's is its entry's shape, and a rule result's is the
    result shape of the edge that builds it, which by the pruning
    argument above is the shape of the result category."""
    id: int
    span: Tuple[int, int]
    cat: Category
    shape: Union[str, Slash] = field(repr=False, compare=False)
    backs: List[tuple] = field(default_factory=list)


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
# match is applied.  On shapes a match is equality (_ShapeTable.edges);
# on categories it is unify_cat, and the result is subst_cat of the built
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


# Entries (shapes and cell pairs) past which parse clears the shape
# table before it starts; see "Shape table" above.
MAX_SHAPE_TABLE = 20_000


class _ShapeTable:
    """The shape pass's work on shapes, done once per process.

    ids maps a shape to its id, a small int, and shapes an id to its
    shape.  pairs maps (left ids, right ids), two frozensets, to the edges
    between a left cell holding those shapes and a right cell holding
    these, as {left id: {right id: {label: result id}}}.  All of it
    depends on ROWS and the shapes alone."""

    def __init__(self):
        self.clear()

    def clear(self) -> None:
        self.ids: dict = {}
        self.shapes: list = []
        self.pairs: Dict[Tuple[frozenset, frozenset], dict] = {}

    def size(self) -> int:
        return len(self.shapes) + len(self.pairs)

    def id(self, shape) -> int:
        """The shape's id, given on first sight."""
        sid = self.ids.get(shape)
        if sid is None:
            sid = self.ids[shape] = len(self.shapes)
            self.shapes.append(shape)
        return sid

    def edges(self, lefts: frozenset, rights: frozenset) -> dict:
        """The edges between cells of the shapes lefts and rights: every
        row of ROWS whose ask of a left shape equals its offer of a right
        one, with the id of its result.  Worked out once per pair, and
        stored only once complete."""
        found = self.pairs.get((lefts, rights))
        if found is not None:
            return found
        found = {}
        for left in lefts:
            lshape = self.shapes[left]
            asks = [(label, ask(lshape), offer, build)
                    for label, ask, offer, build in ROWS]
            for right in rights:
                rshape = self.shapes[right]
                for label, want, offer, build in asks:
                    if want is not None and want == offer(rshape):
                        found.setdefault(left, {}).setdefault(right, {})[label] = \
                            self.id(build(lshape, rshape))
        self.pairs[(lefts, rights)] = found
        return found


_TABLE = _ShapeTable()


def _live_edges(n: int, lexical: Dict[Tuple[int, int], list]) -> Tuple[dict, dict]:
    """The shape backbone of the chart: which constituents can reach a
    full-span item.  Shapes are shape table ids here.

    An inside CKY pass over shapes alone finds every (span, shape) some
    shape derivation builds from the lexical shapes: per split, the shape
    table's edges between the two cells' shape sets.  An outside pass then
    marks each (span, shape) that lies on a shape derivation of a
    full-span shape (of any shape: every full-span item is output), or
    every one when no shape spans the input; it marks an edge's operands
    when its result is marked.  Returns the marked shapes per span and,
    per (i, j, k), the table's edges between (i, k) and (k, j) as
    {left shape: {right shape: {label: result shape}}}.  A label names at
    most one row that matches a pair of shapes, so it has one result.
    """
    sets = {span: frozenset(shapes) for span, shapes in lexical.items()}
    splits: dict = {}
    for width in range(2, n + 1):
        for i in range(0, n - width + 1):
            j = i + width
            made = set()
            for k in range(i + 1, j):
                lefts, rights = sets.get((i, k)), sets.get((k, j))
                if lefts is None or rights is None:
                    continue
                found = splits[(i, j, k)] = _TABLE.edges(lefts, rights)
                for by_right in found.values():
                    for results in by_right.values():
                        made.update(results.values())
            if made:
                sets[(i, j)] = sets.get((i, j), frozenset()) | made

    if sets.get((0, n)):
        live = {(0, n): set(sets[(0, n)])}
    else:
        live = {span: set(shapes) for span, shapes in sets.items()}
    for width in range(n, 1, -1):
        for i in range(0, n - width + 1):
            j = i + width
            marked = live.get((i, j))
            if not marked:
                continue
            for k in range(i + 1, j):
                for left, by_right in splits.get((i, j, k), {}).items():
                    for right, results in by_right.items():
                        if not marked.isdisjoint(results.values()):
                            live.setdefault((i, k), set()).add(left)
                            live.setdefault((k, j), set()).add(right)
    return live, splits


@dataclass
class Chart:
    tokens: Tuple[str, ...]
    cells: Dict[Tuple[int, int], Dict[tuple, Item]]
    items: Dict[int, Item]

    def cell(self, i: int, j: int) -> List[Item]:
        return list(self.cells.get((i, j), {}).values())

    def full_span(self) -> List[Item]:
        return self.cell(0, len(self.tokens))


def parse(tokens, lexicon: Lexicon) -> Chart:
    """Close the chart over the four rules; every token must be covered.

    Only the constituents whose (span, shape) _live_edges marks are
    built: closure skips a span with no marked shape, and tries a label
    on two items only when the table's edge between their shapes gives a
    result shape marked at the span.  Each item takes its shape from
    there: a lexical item its entry's, a rule result its edge's result
    shape."""
    tokens = tuple(tokens)
    if len(tokens) > MAX_TOKENS:
        raise ResourceError(
            f"{len(tokens)} tokens exceeds the {MAX_TOKENS}-token limit")
    if not tokens:
        raise UnknownTokenError("empty input")
    n = len(tokens)
    if _TABLE.size() > MAX_SHAPE_TABLE:
        _TABLE.clear()
    chart = Chart(tokens, {}, {})
    # Per span, each category keyed there so far, mapped to its item.
    known: Dict[Tuple[int, int], Dict[Category, Item]] = {}
    # Per item id, the shape table id of its shape.
    shape_ids: List[Optional[int]] = [None]

    def add(span, cat, shape, back):
        seen = known.get(span)
        if seen is None:
            seen = known[span] = {}
        item = seen.get(cat)
        if item is None:
            cell = chart.cells.setdefault(span, {})
            key = cat_key(cat)
            item = cell.get(key)
            if item is None:
                if len(chart.items) >= MAX_ITEMS:
                    raise ResourceError(
                        f"chart exceeds the {MAX_ITEMS}-item work budget")
                item = cell[key] = Item(len(chart.items) + 1, span, cat,
                                        _TABLE.shapes[shape])
                chart.items[item.id] = item
                shape_ids.append(shape)
            seen[cat] = item
        if back not in item.backs:
            item.backs.append(back)

    covered = [False] * n
    lexical = []
    for i in range(n):
        for entry, k in lexicon.lookup(tokens, i):
            lexical.append(((i, i + k), entry, _TABLE.id(entry.shape)))
            for p in range(i, i + k):
                covered[p] = True
    if not all(covered):
        raise lexicon.unknown_token(tokens, covered.index(False))

    shapes: Dict[Tuple[int, int], list] = {}
    for span, _, shape in lexical:
        shapes.setdefault(span, []).append(shape)
    live, splits = _live_edges(n, shapes)
    for span, entry, shape in lexical:
        if shape in live.get(span, ()):
            add(span, lexicon.fresh(entry.chart_cat), shape, ("lex", entry.tag))

    for width in range(2, n + 1):
        for i in range(0, n - width + 1):
            j = i + width
            marked = live.get((i, j))
            if not marked:
                continue
            for k in range(i + 1, j):
                found = splits.get((i, j, k))
                if not found:
                    continue
                # Both cells hold their items in id order, so backpointers
                # arrive in the order the all-pairs closure gives them.
                for lit in chart.cells.get((i, k), {}).values():
                    by_right = found.get(shape_ids[lit.id])
                    if not by_right:
                        continue
                    for rit in chart.cells.get((k, j), {}).values():
                        results = by_right.get(shape_ids[rit.id])
                        if results:
                            for label, rule in RULES:
                                shape = results.get(label)
                                if shape in marked:
                                    out = rule(lit.cat, rit.cat)
                                    if out is not None:
                                        add((i, j), out, shape, (label, lit.id, rit.id))
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
                 key: tuple, counter) -> Category:
    """Recombine two child categories by label; ChartError unless the result
    has key, item's stored cat_key."""
    lcat = standardize_apart(left, counter)
    rcat = standardize_apart(right, counter)
    out = _combine(label, lcat, rcat)
    if out is None:
        raise ChartError(f"rule {label} failed to replay at {item.span}")
    if cat_key(out) != key:
        raise ChartError(f"replayed category differs at {item.span}:"
                         f" {cat_text(out)} vs {cat_text(item.cat)}")
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
                        cat_text(item.cat), label))
        if label != "lex":
            go(t[1], depth + 1)
            go(t[2], depth + 1)

    go(tree, 0)
    return "\n".join(lines)
