"""CKY chart over four binary rules: application and composition both ways.

Forward composition handles degree 2 (X/Y + (Y/Z)/W) so a raised subject
can compose into a ditransitive verb; backward composition is degree 1.
Unconsumed argument slots ride through composition only under
`passes_through`.  Raising is entirely lexical, so no unary rules appear
here.  Cells deduplicate by canonicalized category, merging backpointers
into a packed forest.  Every category in the chart is in canonical form:
lexical entries pass through eta_reduce_sets as they enter, and the rules
build their results with subst_cat, which follows the unifier and
canonicalizes in one walk.  So cells deduplicate modulo the associativity
of and/2: the bracketings of a coordination share one item, and an
n-conjunct cluster keeps its scopings instead of Catalan-many copies.

Closure visits only pairs whose slash shapes can combine: each completed
cell is indexed by the shapes its items offer as right-hand partners, and
each left item looks up the shapes it asks for, so ids and backpointers
come out as if every pair had been tried.  Charts larger than MAX_ITEMS
items are refused with ResourceError.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Dict, Iterator, List, Optional, Tuple, Union

from .categories import (
    Atomic,
    Category,
    Slash,
    cat_key,
    cat_shape,
    map_sems,
    standardize_apart,
    subst_cat,
    unify_cat,
)
from .lexicon import Lexicon, UnknownTokenError
from .terms import eta_reduce_sets

MAX_TOKENS = 32
# Work budget: a chart that would grow past this many items is refused
# rather than closed.  Ten times the largest chart the bundled corpus, the
# tests and the benchmark build (a depth-4 PP chain, 1940 items).
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


def passes_through(cat: Category) -> bool:
    """May this argument slot ride through a composition?

    Allowed: an np, or a predicate spine — a complex category all of
    whose spine arguments are atomic np and whose final result has sort
    s.  Everything else (bare s, sbar, noun modifiers, raised types)
    must be consumed by application before composing further.
    """
    if isinstance(cat, Atomic):
        return cat.sort == "np"
    c = cat
    while isinstance(c, Slash):
        if not (isinstance(c.arg, Atomic) and c.arg.sort == "np"):
            return False
        c = c.result
    return isinstance(c, Atomic) and c.sort == "s"


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


# Every rule unifies one side's argument with the other side or a part of
# it, and unify_cat fails on categories of different shapes.  So a pair can
# combine only when:
#   >   left is X/Y and right has the shape of Y;
#   >B  left is X/Y and right is Y/Z or (Y/Z)/W, with Z and W passing through;
#   <   right is X\Y and left has the shape of Y;
#   <B  left is Y\Z with Z passing through, and right is X\Y.
# A cell's index files each item under the shapes it offers as the right
# item: in `over`, its own shape and, for >B, the shapes of its result and
# its result's result; in `under`, the shape of its \ argument.


def _index(items) -> Tuple[dict, dict]:
    over: dict = {}
    under: dict = {}
    for it in items:
        cat, shape = it.cat, it.shape
        over.setdefault(shape, []).append(it)
        if isinstance(cat, Slash):
            if cat.dir == "\\":
                under.setdefault(shape[2], []).append(it)
            elif passes_through(cat.arg):
                over.setdefault(shape[1], []).append(it)
                inner = cat.result
                if (isinstance(inner, Slash) and inner.dir == "/"
                        and passes_through(inner.arg)):
                    over.setdefault(shape[1][1], []).append(it)
    return over, under


def _partners(left: Item, over: dict, under: dict) -> List[Item]:
    """The items of an indexed cell that left may combine with, each once,
    in id order."""
    cat, shape = left.cat, left.shape
    found = [under.get(shape)]
    if isinstance(cat, Slash):
        if cat.dir == "/":
            found.append(over.get(shape[2]))
        elif passes_through(cat.arg):
            found.append(under.get(shape[1]))
    found = [bucket for bucket in found if bucket]
    if len(found) > 1:
        # Only a right item filed in both tables can turn up twice.
        return sorted({it.id: it for bucket in found for it in bucket}.values(),
                      key=attrgetter("id"))
    return found[0] if found else []


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
    """Close the chart over the four rules; every token must be covered."""
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
    for i in range(n):
        try:
            matches = lexicon.lookup(tokens, i)
        except UnknownTokenError:
            continue
        for entry, k in matches:
            add((i, i + k), map_sems(entry.cat, eta_reduce_sets), ("lex", entry.tag))
            for p in range(i, i + k):
                covered[p] = True
    for i, ok in enumerate(covered):
        if not ok:
            raise lexicon.unknown_token(tokens, i)

    indexes: Dict[Tuple[int, int], Tuple[dict, dict]] = {}
    for width in range(2, n + 1):
        for i in range(0, n - width + 1):
            j = i + width
            for k in range(i + 1, j):
                left_cell = chart.cells.get((i, k))
                right_cell = chart.cells.get((k, j))
                if not left_cell or not right_cell:
                    continue
                # Narrower than (i, j), so complete: index it once.
                index = indexes.get((k, j))
                if index is None:
                    index = indexes[(k, j)] = _index(right_cell.values())
                for lit in left_cell.values():
                    for rit in _partners(lit, *index):
                        for label, rule in RULES:
                            out = rule(lit.cat, rit.cat)
                            if out is not None:
                                add((i, j), out, (label, lit.id, rit.id))
    return chart


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
