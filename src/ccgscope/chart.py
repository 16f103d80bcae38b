"""CKY chart over four binary rules: application and composition both ways.

Forward composition handles degree 2 (X/Y + (Y/Z)/W) so a raised subject
can compose into a ditransitive verb; backward composition is degree 1.
Unconsumed argument slots ride through composition only under
`passes_through`.  Raising is entirely lexical, so no unary rules appear
here.  Cells deduplicate by canonicalized category, merging backpointers
into a packed forest.  Every category in the chart is in canonical form and recorded (terms):
lexical entries enter in their chart form (LexEntry.chart_cat, computed
once per entry), the n-th occurrence of an entry in a sentence as its
n-th copy renamed apart and recorded, made once per lexicon
(Lexicon.chart_copy), and the rules build their results with subst_cat,
which follows the unifier and canonicalizes in one walk.  So cells deduplicate
modulo the associativity of and/2: the bracketings of a coordination
share one item, and an n-conjunct cluster keeps its scopings instead of
Catalan-many copies.  The walk returns at once every subterm whose
recorded variables the unifier leaves unbound (terms.apply_reduced), so
a rule result costs the part of its operands that the unifier reaches,
not the whole of them.

Keys.  Two items of a span are one iff their categories are variants,
that is iff their cat_keys, tuples that encode the canonical copy node
by node with each node's type, are equal.  Chart.cells maps a span to
its items in id order.  add files a lexical item and a rule result
alike.  Keying is a walk over the whole category, and most rule results
duplicate an item, nearly all of them equal as terms to a category the
cell already holds.  So add first looks a category up by itself, in a
dict local to parse that holds, per span, every category filed there
(terms hash and compare in C).  Equal categories are variants, so a hit
is the item a key would give, and ids and backpointers do not change.
A miss, a new item or a variant duplicate, is filed there too, and gets
a signature (_signature) read without walking its terms: its shape id
and, per atomic, its semantics' functor and the size of its variable
record.  Every chart category's semantics carries a record or is a
variable or an atom: subst_cat builds a rule result with apply_reduced,
which records every compound, lambda and up(.) term it returns (terms),
and a lexical copy is recorded as it is made.  A one-to-one renaming
keeps all three, so variants share a signature, and a miss whose
signature no item of its cell has is a new item, made without a key.
cat_key runs only for a miss whose cell holds an item of its signature,
and then once too for the first item of that signature, which until
then was filed unkeyed; the keyed items of a span are looked up by key.
Over the corpus and the test families (test_chart's KEYING_CASES) that
is 5,009 keys for 8,749 items, 960 of them lexical, no two of which
share a cell and a signature: 4,137 misses shared a signature and 872
items were keyed when one first did.  Keying every miss would take
8,990, and keying every lexical item and result 16,825: 7,835 results
were equal duplicates and 241 variants.  On the coord_cluster benchmark
a seed-1 pass makes 596 misses, 210 of them lexical items, and 36 keys.
The key builds no text: cat_text prints a category for pretty, the CLI
and error messages, and nothing compares printed text.  add appends a
backpointer without a search, as each is new: parse tries a rule's
(label, left id, right id) once, and a span's lexical items are entries
of one lexeme, no two of them variants (lexicon).

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
(Item.shape is the shape itself).  The inside pass asks the table once
per split whose two cells are non-empty, found from the ends of each
start's non-empty cells, and records the splits that hold an edge;
the outside pass and closure walk only those.  A seed-1 pass of the
coord_cluster benchmark has 6,758 splits, 652 of them filled, and 244
that hold an edge.

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
The check runs in the walk that builds every rule result, so parse and
the tests' replay of each derivation, which calls _combine too, agree
on it.  load_lexicon refuses a written category that holds such a
quantifier, so no item of a chart built from a loaded lexicon holds one,
and the readings layer does not look for one.

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

from bisect import insort
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple, Union

from .categories import (
    Category,
    Slash,
    cat_key,
    cat_text,
    subst_cat,
    unify_cat,
)
from .lexicon import Lexicon, UnknownTokenError
# Not called here: lexical entries bring their chart form
# (LexEntry.chart_cat).  perfbench/tracing.py patches this name.
from .terms import eta_reduce_sets  # noqa: F401
from .terms import Atom, Compound, QuantifierSlotError, Var

MAX_TOKENS = 32
# Work budget: a chart that would grow past this many items is refused
# rather than closed.  It counts built items only, after pruning.  The
# largest chart the tests build is a 26-token depth-7 PP chain (8,697
# items; the all-pairs chart would pass 20,000); the benchmark's largest
# is a depth-3 clause embedding (515 items, nested_scope at seeds 1-3).
MAX_ITEMS = 20_000


class ResourceError(Exception):
    """Input exceeds a hard engine limit."""


class Item(NamedTuple):
    """A chart constituent.  shape is cat_shape(cat), handed in by parse:
    a lexical item's is its entry's shape, and a rule result's is the
    result shape of the edge that builds it, which by the pruning
    argument above is the shape of the result category.  backs, the
    item's backpointers, is the one mutable field: each item gets a list
    of its own."""
    id: int
    span: Tuple[int, int]
    cat: Category
    shape: Union[str, Slash]
    backs: List[tuple]


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
    shape derivation builds from the lexical shapes: per split whose two
    cells are non-empty, the shape table's edges between their shape
    sets.  It keeps, per start i, the ends of the non-empty cells in
    increasing order, so it visits only those splits.  An outside pass
    then marks each (span, shape) that lies on a shape derivation of a
    full-span shape (of any shape: every full-span item is output), or
    every one when no shape spans the input; it walks the spans widest
    first, and marks an edge's operands when its result is marked.
    Returns the marked shapes per span and, per span, its splits that
    hold an edge, in increasing k, as (k, the table's edges between (i,
    k) and (k, j)): {left shape: {right shape: {label: result shape}}}.
    A label names at most one row that matches a pair of shapes, so it
    has one result.  Spans come in closure order, by width and then by
    start.
    """
    sets = {span: frozenset(shapes) for span, shapes in lexical.items()}
    ends: List[list] = [[] for _ in range(n)]
    for i, j in sorted(sets):
        ends[i].append(j)
    splits: dict = {}
    for width in range(2, n + 1):
        for i in range(0, n - width + 1):
            j = i + width
            made = set()
            edges = []
            for k in ends[i]:
                if k >= j:
                    break
                rights = sets.get((k, j))
                if rights is None:
                    continue
                found = _TABLE.edges(sets[(i, k)], rights)
                if found:
                    edges.append((k, found))
                    for by_right in found.values():
                        for results in by_right.values():
                            made.update(results.values())
            if edges:
                splits[(i, j)] = edges
                shapes = sets.get((i, j))
                if shapes is None:
                    sets[(i, j)] = frozenset(made)
                    insort(ends[i], j)
                else:
                    sets[(i, j)] = shapes | made

    if sets.get((0, n)):
        live = {(0, n): set(sets[(0, n)])}
    else:
        live = {span: set(shapes) for span, shapes in sets.items()}
    for (i, j), edges in reversed(splits.items()):
        marked = live.get((i, j))
        if not marked:
            continue
        for k, found in edges:
            for left, by_right in found.items():
                for right, results in by_right.items():
                    if not marked.isdisjoint(results.values()):
                        live.setdefault((i, k), set()).add(left)
                        live.setdefault((k, j), set()).add(right)
    return live, splits


def _signature(cat: Category) -> tuple:
    """A chart category's signature but its shape id ("Keys" above), read
    without walking its terms: per atomic in preorder, its semantics'
    functor (an atom's name, or the node type of a variable, lambda or
    up(.)) and the size of its variable record, a variable counting 1."""
    if type(cat) is Slash:
        return _signature(cat.result) + _signature(cat.arg)
    sem = cat.sem
    kind = type(sem)
    if kind is Compound:
        return (sem.functor, len(sem.varset))
    if kind is Var:
        return (Var, 1)
    if kind is Atom:
        return (sem.name, 0)
    return (kind, len(sem.varset))


class Chart(NamedTuple):
    tokens: Tuple[str, ...]
    cells: Dict[Tuple[int, int], List[Item]]
    items: Dict[int, Item]

    def cell(self, i: int, j: int) -> List[Item]:
        return list(self.cells.get((i, j), ()))

    def full_span(self) -> List[Item]:
        return self.cell(0, len(self.tokens))


def parse(tokens, lexicon: Lexicon) -> Chart:
    """Close the chart over the four rules; every token must be covered.

    Only the constituents whose (span, shape) _live_edges marks are
    built: closure skips a span with no marked shape, walks its recorded
    splits in increasing k, and tries a label on two items only when the
    table's edge between their shapes gives a result shape marked at the
    span.  Each item takes its shape from there: a lexical item its
    entry's, a rule result its edge's result shape.

    The n-th occurrence of a live entry in the sentence enters as the
    entry's n-th chart copy (Lexicon.chart_copy), made and recorded on
    first need in any parse on this lexicon and kept, so it is renamed
    once per lexicon, not once per parse.  No two lexical items of the
    chart share a variable.  A lexical item is filed as a rule result
    is, and either is keyed only when its cell holds an item of its
    signature ("Keys" above).  No backpointer repeats."""
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
    # Per span, each category filed there so far, mapped to its item.
    known: Dict[Tuple[int, int], Dict[Category, Item]] = {}
    # Per span, the items filed under their cat_key: each that shares its
    # signature with another item of the span.
    keyed: Dict[Tuple[int, int], Dict[tuple, Item]] = {}
    # Per span, each item's signature, mapped to the item while it is not
    # keyed, and to None once the span's items of it are all keyed.
    signed: Dict[Tuple[int, int], dict] = {}
    # Per item id, the shape table id of its shape.
    shape_ids: List[Optional[int]] = [None]

    def add(span, cat, shape, back):
        seen = known.get(span)
        if seen is None:
            seen = known[span] = {}
            signed[span] = {}
        item = seen.get(cat)
        if item is None:
            by_sig = signed[span]
            sig = (shape, _signature(cat))
            key = None
            if sig in by_sig:
                by_key = keyed.setdefault(span, {})
                first = by_sig[sig]
                if first is not None:
                    by_key[cat_key(first.cat)] = first
                    by_sig[sig] = None
                key = cat_key(cat)
                item = by_key.get(key)
            if item is None:
                if len(chart.items) >= MAX_ITEMS:
                    raise ResourceError(
                        f"chart exceeds the {MAX_ITEMS}-item work budget")
                item = Item(len(chart.items) + 1, span, cat, _TABLE.shapes[shape], [])
                chart.cells.setdefault(span, []).append(item)
                chart.items[item.id] = item
                shape_ids.append(shape)
                if key is None:
                    by_sig[sig] = item
                else:
                    by_key[key] = item
            seen[cat] = item
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
    uses: Dict[int, int] = {}  # per entry id, its occurrences entered so far
    for span, entry, shape in lexical:
        if shape in live.get(span, ()):
            nth = uses.get(id(entry), 0)
            uses[id(entry)] = nth + 1
            add(span, lexicon.chart_copy(entry, nth), shape, ("lex", entry.tag))

    cells = chart.cells
    for (i, j), edges in splits.items():
        marked = live.get((i, j))
        if not marked:
            continue
        for k, found in edges:
            # Both cells hold their items in id order, and the splits come
            # in increasing k, so backpointers arrive in the order the
            # all-pairs closure gives them.
            for lit in cells.get((i, k), ()):
                by_right = found.get(shape_ids[lit.id])
                if not by_right:
                    continue
                for rit in cells.get((k, j), ()):
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
    backpointer names two items whose spans are strictly narrower than
    its item's, so one pass over the cells by span width finds both
    counts ready.  Ids give no such order: a lexical item of a
    multi-word lexeme is built before closure, and a rule result of
    its span may merge into it."""
    counts: Dict[int, int] = {}
    for span in sorted(chart.cells, key=lambda span: span[1] - span[0]):
        for item in chart.cells[span]:
            total = 0
            for back in item.backs:
                total += 1 if back[0] == "lex" else counts[back[1]] * counts[back[2]]
            counts[item.id] = total
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
