"""CKY chart over four binary rules: application and composition both ways.

Forward composition handles degree 2 (X/Y + (Y/Z)/W) so a raised subject
can compose into a ditransitive verb; backward composition is degree 1.
Unconsumed argument slots ride through composition only under
`passes_through`.  Raising is entirely lexical, so no unary rules appear
here.  Cells deduplicate by canonicalized category, merging backpointers
into a packed forest.  Every category's semantics passes through
eta_reduce_sets first, so cells deduplicate modulo the associativity of
and/2: the bracketings of a coordination share one item, and an
n-conjunct cluster keeps its scopings instead of Catalan-many copies.
Charts larger than MAX_ITEMS items are refused with ResourceError.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from .categories import (
    Atomic,
    Category,
    Slash,
    cat_key,
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
        cat = map_sems(cat, eta_reduce_sets)
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
            add((i, i + k), entry.cat, ("lex", entry.tag))
            for p in range(i, i + k):
                covered[p] = True
    for i, ok in enumerate(covered):
        if not ok:
            raise lexicon.unknown_token(tokens, i)

    for width in range(2, n + 1):
        for i in range(0, n - width + 1):
            j = i + width
            for k in range(i + 1, j):
                left_cell = chart.cells.get((i, k))
                right_cell = chart.cells.get((k, j))
                if not left_cell or not right_cell:
                    continue
                for lit in left_cell.values():
                    for rit in right_cell.values():
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
        lcat = standardize_apart(go(lt), counter)
        rcat = standardize_apart(go(rt), counter)
        out = _RULE_FNS[label](lcat, rcat)
        if out is None:
            raise ChartError(f"rule {label} failed to replay at {item.span}")
        out = map_sems(out, eta_reduce_sets)
        if cat_key(out) != cat_key(item.cat):
            raise ChartError(
                f"replayed category differs at {item.span}: "
                f"{cat_key(out)} vs {cat_key(item.cat)}")
        return out

    return go(tree)


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
