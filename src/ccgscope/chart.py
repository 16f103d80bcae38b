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
Catalan-many copies.

parse runs in two passes.  The first works on shapes alone (cat_shape:
sorts and slash skeletons, no terms, no unification).  An inside CKY pass
over the rules stated at shape level (SHAPE_RULES) finds every (span,
shape) the lexical shapes can build, and an outside pass marks those that
lie on a shape derivation of some full-span shape.  The second pass,
closure proper, builds only the lexical and rule items whose (span,
shape) is marked, and tries only the pairs and rules of the edges into
marked shapes.  When no shape spans the input, everything is marked and
the chart is the whole all-pairs chart, so a failed parse keeps every
constituent.

Why pruning loses nothing: unify_cat fails on any two categories whose
shapes differ, subst_cat keeps shapes, and passes_through reads shapes
only.  So every rule success on two items is a SHAPE_RULES result for
their shapes, and every item of a full-span derivation has a marked (span,
shape).  Every item some full-span item reaches is built, with all its
backpointers in the same order as the all-pairs closure would give them,
so readings, derivations and their order do not change.  Charts larger
than MAX_ITEMS items are refused with ResourceError.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from operator import attrgetter
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
    shape: Union[str, tuple] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.shape = cat_shape(self.cat)


def shape_passes_through(shape) -> bool:
    """May an argument slot of this cat_shape ride through a composition?

    Allowed: an np, or a predicate spine — a complex category all of
    whose spine arguments are atomic np and whose final result has sort
    s.  Everything else (bare s, sbar, noun modifiers, raised types)
    must be consumed by application before composing further.
    """
    if type(shape) is str:
        return shape == "np"
    while type(shape) is tuple:
        if shape[2] != "np":
            return False
        shape = shape[1]
    return shape == "s"


def passes_through(cat: Category) -> bool:
    """shape_passes_through on the category's shape."""
    return shape_passes_through(cat_shape(cat))


def fwd_apply(left: Category, right: Category) -> Optional[Category]:
    if not (isinstance(left, Slash) and left.dir == "/"):
        return None
    s = unify_cat(left.arg, right)
    if s is None:
        return None
    return subst_cat(s, left.result)


def bwd_apply(left: Category, right: Category) -> Optional[Category]:
    if not (isinstance(right, Slash) and right.dir == "\\"):
        return None
    s = unify_cat(right.arg, left)
    if s is None:
        return None
    return subst_cat(s, right.result)


def fwd_compose(left: Category, right: Category) -> Optional[Category]:
    """X/Y + Y/Z -> X/Z; degree 2: X/Y + (Y/Z)/W -> (X/Z)/W."""
    if not (isinstance(left, Slash) and left.dir == "/"
            and isinstance(right, Slash) and right.dir == "/"):
        return None
    if passes_through(right.arg):
        s = unify_cat(left.arg, right.result)
        if s is not None:
            return Slash("/", subst_cat(s, left.result), subst_cat(s, right.arg))
        inner = right.result
        if isinstance(inner, Slash) and inner.dir == "/" and passes_through(inner.arg):
            s = unify_cat(left.arg, inner.result)
            if s is not None:
                return Slash("/",
                             Slash("/", subst_cat(s, left.result),
                                   subst_cat(s, inner.arg)),
                             subst_cat(s, right.arg))
    return None


def bwd_compose(left: Category, right: Category) -> Optional[Category]:
    """Y\\Z + X\\Y -> X\\Z (degree 1)."""
    if not (isinstance(left, Slash) and left.dir == "\\"
            and isinstance(right, Slash) and right.dir == "\\"):
        return None
    if not passes_through(left.arg):
        return None
    s = unify_cat(right.arg, left.result)
    if s is None:
        return None
    return Slash("\\", subst_cat(s, right.result), subst_cat(s, left.arg))


RULES = (
    (">", fwd_apply),
    ("<", bwd_apply),
    (">B", fwd_compose),
    ("<B", bwd_compose),
)

_RULE_FNS = dict(RULES)


# The rules at shape level.  unify_cat fails on categories of different
# shapes, subst_cat keeps shapes and passes_through reads shapes only, so a
# rule succeeds on two categories only where a row of its here matches
# their shapes, and its result then has the row's result shape.  A row
# holds the rule's label, the key a left shape asks for, the key a right
# shape offers (None: the row does not apply) and the result shape; the
# shapes match when the two keys are equal.


def _over(shape) -> bool:
    return type(shape) is tuple and shape[0] == "/"


def _under(shape) -> bool:
    return type(shape) is tuple and shape[0] == "\\"


def _fwd_arg(left):
    return left[2] if _over(left) else None


def _bwd_arg(right):
    return right[2] if _under(right) else None


def _composed_result(right):
    # Y/Z, Z passing through, offers Y.
    return right[1] if _over(right) and shape_passes_through(right[2]) else None


def _composed_result_result(right):
    # (Y/Z)/W, Z and W passing through, offers Y.
    inner = _composed_result(right)
    return _composed_result(inner) if inner is not None else None


def _bwd_composed_result(left):
    # Y\Z, Z passing through, asks for Y.
    return left[1] if _under(left) and shape_passes_through(left[2]) else None


SHAPE_RULES = (
    # X/Y + Y -> X
    (">", _fwd_arg, lambda right: right, lambda left, right: left[1]),
    # Y + X\Y -> X
    ("<", lambda left: left, _bwd_arg, lambda left, right: right[1]),
    # X/Y + Y/Z -> X/Z
    (">B", _fwd_arg, _composed_result, lambda left, right: ("/", left[1], right[2])),
    # X/Y + (Y/Z)/W -> (X/Z)/W
    (">B", _fwd_arg, _composed_result_result,
     lambda left, right: ("/", ("/", left[1], right[1][2]), right[2])),
    # Y\Z + X\Y -> X\Z
    ("<B", _bwd_composed_result, _bwd_arg, lambda left, right: ("\\", right[1], left[2])),
)


def _index(shapes) -> List[dict]:
    """Per row of SHAPE_RULES, the given right shapes filed under the key
    each offers."""
    index: List[dict] = [{} for _ in SHAPE_RULES]
    for shape in shapes:
        for table, (_, _, offer, _) in zip(index, SHAPE_RULES):
            key = offer(shape)
            if key is not None:
                table.setdefault(key, []).append(shape)
    return index


def _partners(left, index: List[dict]) -> Iterator[tuple]:
    """(right shape, label, result shape) for every row under which the
    left shape combines with a right shape of the indexed cell."""
    for table, (label, ask, _, result) in zip(index, SHAPE_RULES):
        key = ask(left)
        if key is not None:
            for right in table.get(key, ()):
                yield right, label, result(left, right)


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
                    index = indexes[(k, j)] = _index(right_cell)
                for left in left_cell:
                    for right, label, out in _partners(left, index):
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

    by_shape: Dict[Tuple[int, int], dict] = {}
    for width in range(2, n + 1):
        for i in range(0, n - width + 1):
            j = i + width
            for k in range(i + 1, j):
                wanted = edges.get((i, j, k))
                if not wanted:
                    continue
                # Narrower than (i, j), so complete: group it once.
                right = by_shape.get((k, j))
                if right is None:
                    right = by_shape[(k, j)] = {}
                    for it in chart.cells.get((k, j), {}).values():
                        right.setdefault(it.shape, []).append(it)
                partners: dict = {}
                for lit in chart.cells.get((i, k), {}).values():
                    want = wanted.get(lit.shape)
                    if not want:
                        continue
                    found = partners.get(lit.shape)
                    if found is None:
                        found = partners[lit.shape] = _item_partners(want, right)
                    for rit in found:
                        labels = want[rit.shape]
                        for label, rule in RULES:
                            if label in labels:
                                out = rule(lit.cat, rit.cat)
                                if out is not None:
                                    add((i, j), out, (label, lit.id, rit.id))
    return chart


def _item_partners(want: dict, right: dict) -> List[Item]:
    """The items of a cell, grouped by shape, whose shape is a key of
    want; each once, in id order."""
    found = [it for shape in want for it in right.get(shape, ())]
    if len(want) > 1:
        found.sort(key=attrgetter("id"))
    return found


def count_derivations(chart: Chart) -> Dict[int, int]:
    """Derivation count per item id over the packed forest."""
    memo: Dict[int, int] = {}

    def count(i: int) -> int:
        if i not in memo:
            total = 0
            for back in chart.items[i].backs:
                if back[0] == "lex":
                    total += 1
                else:
                    total += count(back[1]) * count(back[2])
            memo[i] = total
        return memo[i]

    for i in chart.items:
        count(i)
    return memo


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
                 counter) -> Category:
    """Recombine two child categories by label; ChartError unless the result
    has item's stored key."""
    lcat = standardize_apart(left, counter)
    rcat = standardize_apart(right, counter)
    out = _RULE_FNS[label](lcat, rcat)
    if out is None:
        raise ChartError(f"rule {label} failed to replay at {item.span}")
    if cat_key(out) != cat_key(item.cat):
        raise ChartError(
            f"replayed category differs at {item.span}: "
            f"{cat_key(out)} vs {cat_key(item.cat)}")
    return out


def replay(tree) -> Category:
    """Recompute a derivation bottom-up, checking each stored category.

    Children are standardized apart before combining, exactly as lookup
    freshens lexical entries.  Raises ChartError on any mismatch.
    """
    counter = itertools.count(1)

    def go(t) -> Category:
        if t[0] == "lex":
            return t[2].cat
        label, lt, rt, item = t
        return _replay_step(label, go(lt), go(rt), item, counter)

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
        for back in item.backs:
            if back[0] != "lex":
                label, li, ri = back
                _replay_step(label, chart.items[li].cat, chart.items[ri].cat,
                             item, counter)


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
