"""Canonical scoped readings of a parsed sentence.

Full-span logical forms arrive with some determiners still in
set-denoting argument position (s-<det> terms).  `normalize` promotes
each to a scoping quantifier q-<det>(V, restriction, body) wrapped at
the smallest subterm that covers its occurrences, so that derivations
differing only in where along the spine an argument was consumed map to
one canonical reading.  Placement rules:

- An occurrence whose restriction mentions a variable bound above it is
  promoted just above its own predication when nothing quantificational
  intervenes below the binder (or when the intervening material is a
  coordination); otherwise directly below the binder.
- Structurally identical occurrences distributed over a coordination
  are promoted jointly at the and/2 where they part when no quantifier
  or up(.) boundary separates it from them, unless every occurrence sits
  beside an intensional argument under an outer quantifier, in which
  case each occurrence is handled on its own.  Joint promotion happens
  only across the conjuncts of an and/2: identical occurrences that part
  anywhere else are separate noun phrases, each promoted on its own.
- An occurrence beside an up(.) argument that still carries scope
  material stays in place (a set-form residue): promoting it would
  assert an order against material trapped in the intensional argument.
- Everything else is promoted at its own predication; promotion never
  crosses an up(.) boundary outward.

At one predication, promoted quantifiers nest leftmost-argument
outermost, except when a bound variable sits between two promoted
argument positions (then the order flips, keeping the binder adjacent
to the position it licenses).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from .categories import Atomic
from .chart import Chart, count_derivations, parse
from .lexicon import Lexicon, default_lexicon
from .terms import (
    QUANT_PREFIX,
    SET_PREFIX,
    Atom,
    Compound,
    Lam,
    Term,
    Up,
    Var,
    apply,
    canonicalize,
    children,
    format_term,
    free_vars,
    is_and,
    is_quant,
    is_set_form,
    subterms,
    unbound_quantifier,
    with_children,
)


class NoParseError(Exception):
    """The sentence has no full-span s derivation."""


class StructuralError(Exception):
    """A logical form is not in promotable shape."""


class ReadingError(Exception):
    """A named determiner occurrence is absent from a reading."""


@dataclass(frozen=True)
class Reading:
    term: Term
    multiplicity: int


# --- term walking ----------------------------------------------------------

# A path step is the argument index under a compound and a name elsewhere.
_NAMED_STEPS = {Lam: ("param", "lam"), Up: ("up",)}


def _steps(node: Term):
    """The path step to each of node's children, in children() order."""
    if isinstance(node, Compound):
        return range(len(node.args))
    return _NAMED_STEPS.get(type(node), ())


def _walk(t: Term) -> Iterator[Tuple[tuple, Term, tuple]]:
    """All (path, node, chain) triples in preorder, where chain holds the
    (ancestor, step) pairs from t down to node."""
    stack = [((), t, ())]
    while stack:
        path, node, chain = stack.pop()
        yield path, node, chain
        stack.extend(reversed([(path + (step,), kid, chain + ((node, step),))
                               for step, kid in zip(_steps(node), children(node))]))


def _binds(node: Term, step) -> Optional[Var]:
    """The variable node makes visible along this step, if any."""
    if is_quant(node) and isinstance(node.args[0], Var) and step in (1, 2):
        return node.args[0]
    return None


def _visible(chain: tuple) -> set:
    """The variables bound along chain."""
    return {v for n, s in chain if (v := _binds(n, s)) is not None}


def _binder_index(chain: tuple, free: set) -> Optional[int]:
    """Position in chain of the innermost binder of a variable in free."""
    for idx in range(len(chain) - 1, -1, -1):
        if _binds(*chain[idx]) in free:
            return idx
    return None


def _has_scope_material(t: Term) -> bool:
    return any(is_quant(n) or is_set_form(n) for n in subterms(t))


# --- promotion site assignment ---------------------------------------------

@dataclass
class _Wrap:
    site: tuple
    det: str
    var: Var
    restriction: tuple    # (path, node, chain) of the argument used as restriction
    occ_paths: Tuple[tuple, ...]
    order: int            # preorder rank of the first occurrence


def _low_site(chain: tuple, path: tuple) -> tuple:
    """Innermost enclosing compound; promotion never exits an up(.)."""
    for idx in range(len(chain) - 1, -1, -1):
        node = chain[idx][0]
        if isinstance(node, Compound):
            return path[:idx]
        if isinstance(node, Up):
            raise StructuralError("set form directly under an up(.) argument")
    raise StructuralError("set form with no enclosing compound")


def _float_position(chain: tuple) -> bool:
    if not chain:
        return False
    node, step = chain[-1]
    if not isinstance(node, Compound):
        return False
    return any(isinstance(a, Up) and _has_scope_material(a.body)
               for i, a in enumerate(node.args) if i != step)


def _single_site(chain: tuple, path: tuple) -> Optional[tuple]:
    """Site for one closed occurrence; None means it stays in place."""
    if any(isinstance(n, Up) for n, _ in chain):
        return _low_site(chain, path)
    if _float_position(chain):
        return None
    return _low_site(chain, path)


def _dependent_site(chain: tuple, path: tuple, free: set) -> tuple:
    binder_idx = _binder_index(chain, free)
    assert binder_idx is not None
    below = chain[binder_idx + 1:]
    if not any(is_quant(n) for n, _ in below) or any(is_and(n) for n, _ in below):
        return _low_site(chain, path)
    return path[:binder_idx + 1]


def _assign_sites(t: Term) -> Tuple[List[_Wrap], Dict[tuple, Var]]:
    occ_list = [(path, node, chain) for path, node, chain in _walk(t)
                if is_set_form(node)]
    rank = {path: i for i, (path, _, _) in enumerate(occ_list)}
    chains = {path: chain for path, _, chain in occ_list}
    groups: Dict[Term, List[tuple]] = {}
    for path, node, _ in occ_list:
        groups.setdefault(node, []).append(path)

    fresh = itertools.count(1)
    wraps: List[_Wrap] = []
    replace: Dict[tuple, Var] = {}

    def promote(node, paths, site):
        var = Var(f"_q{next(fresh)}")
        for p in paths:
            replace[p] = var
        first = paths[0]
        wraps.append(_Wrap(site, node.functor[len(SET_PREFIX):], var,
                           (first + (0,), node.args[0], chains[first] + ((node, 0),)),
                           tuple(paths), min(rank[p] for p in paths)))

    # Joint promotion keeps only the first copy's subtree; occurrences of
    # other tokens inside a discarded copy have identical twins inside the
    # surviving copy, so they are dropped here.  Containers are decided
    # before the tokens their copies contain (their occurrence paths are
    # strictly shorter).
    dead: List[tuple] = []

    def alive(p: tuple) -> bool:
        return not any(len(p) > len(d) and p[:len(d)] == d for d in dead)

    ordered_groups = sorted(
        groups.items(),
        key=lambda kv: (min(len(p) for p in kv[1]), min(rank[p] for p in kv[1])))

    for node, paths in ordered_groups:
        paths = [p for p in paths if alive(p)]
        if not paths:
            continue
        fv = set(free_vars(node.args[0]))
        bound_free = {p: fv & _visible(chains[p]) for p in paths}

        if any(bound_free.values()):
            for p in paths:
                if bound_free[p]:
                    site = _dependent_site(chains[p], p, bound_free[p])
                else:
                    site = _single_site(chains[p], p)
                if site is not None:
                    promote(node, [p], site)
            continue

        if len(paths) >= 2:
            prefix = paths[0]
            for p in paths[1:]:
                n = 0
                while n < min(len(prefix), len(p)) and prefix[n] == p[n]:
                    n += 1
                prefix = prefix[:n]
            # Equal set forms are copies of one shared argument when they
            # part at the and/2 that distributes it; parting anywhere else,
            # they are separate noun phrases.  (No copy contains another, a
            # term never being its own proper subterm, so every path runs
            # past prefix.)
            chain = chains[paths[0]]
            dominated = any(is_quant(n) for n, _ in chain[:len(prefix)])
            if not is_and(chain[len(prefix)][0]):
                pass  # separate noun phrases: handle one by one
            elif dominated and all(_float_position(chains[p]) for p in paths):
                pass  # every copy floats beside an up(.): handle one by one
            elif not any(is_quant(n) or isinstance(n, Up)
                         for p in paths for n, _ in chains[p][len(prefix) + 1:]):
                promote(node, paths, prefix)
                dead.extend(paths[1:])
                continue

        for p in paths:
            site = _single_site(chains[p], p)
            if site is not None:
                promote(node, [p], site)

    return wraps, replace


# --- phase 2: rebuild -------------------------------------------------------

def _ordered(wraps: List[_Wrap], node: Term, path: tuple, chain: tuple) -> List[_Wrap]:
    """Outermost-first order of the quantifiers wrapped at one site."""
    direct = {}
    for w in wraps:
        pos = [p[-1] for p in w.occ_paths
               if len(p) == len(path) + 1 and isinstance(p[-1], int)]
        if pos:
            direct[id(w)] = min(pos)
    flip = False
    if len(direct) >= 2 and isinstance(node, Compound):
        visible = _visible(chain)
        for a, b in itertools.combinations(sorted(direct.values()), 2):
            if any(isinstance(node.args[k], Var) and node.args[k] in visible
                   for k in range(a + 1, b)):
                flip = True
    return sorted(wraps, key=lambda w: w.order, reverse=flip)


def normalize(t: Term) -> Term:
    """Promote set forms to scoped quantifiers; result in canonical form (canonicalize)."""
    if not _well_formed(t):
        raise StructuralError(
            "quantifier with a non-variable in its variable position")

    wraps, replace = _assign_sites(t)
    by_site: Dict[tuple, List[_Wrap]] = {}
    for w in wraps:
        by_site.setdefault(w.site, []).append(w)

    def restriction(w: _Wrap) -> Term:
        body = rebuild(*w.restriction)
        if isinstance(body, Lam):
            return apply({body.param: w.var}, body.body)
        if isinstance(body, Atom):
            return Compound(body.name, (w.var,))
        raise StructuralError(f"unpromotable restriction {format_term(body)}")

    def rebuild(path: tuple, node: Term, chain: tuple) -> Term:
        if path in replace:
            return replace[path]
        out = with_children(node, [rebuild(path + (step,), kid, chain + ((node, step),))
                                   for step, kid in zip(_steps(node), children(node))])
        here = by_site.get(path)
        if here:
            for w in reversed(_ordered(here, node, path, chain)):
                out = Compound(QUANT_PREFIX + w.det, (w.var, restriction(w), out))
        return out

    result = rebuild((), t, ())
    if free_vars(t) == () and free_vars(result):
        raise StructuralError(
            f"promotion left variables unbound in {format_term(result)}")
    return canonicalize(result)


# --- filters ----------------------------------------------------------------

def _well_formed(t: Term) -> bool:
    return unbound_quantifier(t) is None


def _intensional_violation(t: Term) -> bool:
    """A quantifier binding into an up(.) argument it cannot scope over.

    Binding into an intensional argument is tolerated only when the
    binder sits immediately on a coordination of such arguments and no
    other quantifier intervenes above the up(.).
    """
    for _, node, chain in _walk(t):
        if not isinstance(node, Up):
            continue
        free = set(free_vars(node.body))
        if not free:
            continue
        binder_idx = _binder_index(chain, free)
        if binder_idx is None:
            continue
        others = any(is_quant(n) and idx != binder_idx
                     for idx, (n, _) in enumerate(chain))
        coordinated = any(is_and(n) for n, _ in chain[binder_idx + 1:])
        if others or not coordinated:
            return True
    return False


# --- readings ---------------------------------------------------------------

def readings_from_chart(chart: Chart) -> List[Reading]:
    """The canonical readings of the chart's full-span s items, each with
    the number of derivations behind it, sorted by printed form.

    No quantifier over a non-variable is looked for here: a chart built
    from a loaded lexicon holds none.  load_lexicon refuses every written
    category that holds one, a raised entry's quantifier binds a fresh
    variable, and the rules refuse to build one (terms.apply_reduced).
    A chart from a lexicon assembled by hand, around load_lexicon, may
    hold one; normalize then raises StructuralError.
    """
    full = [it for it in chart.full_span()
            if isinstance(it.cat, Atomic) and it.cat.sort == "s"]
    if not full:
        raise NoParseError("no full-span s derivation")
    counts = count_derivations(chart)
    groups: Dict[Term, int] = {}
    for item in full:
        lf = item.cat.sem
        if _intensional_violation(lf):
            continue
        canon = normalize(lf)
        groups[canon] = groups.get(canon, 0) + counts[item.id]
    out = [Reading(term, mult) for term, mult in groups.items()]
    out.sort(key=lambda r: format_term(r.term))
    return out


def readings(tokens, lexicon: Optional[Lexicon] = None) -> List[Reading]:
    return readings_from_chart(parse(tokens, lexicon or default_lexicon()))


# --- determiner occurrences and scope order ----------------------------------

@dataclass(frozen=True)
class Occurrence:
    label: str
    det: str
    noun: str
    path: tuple
    kind: str  # "q" promoted | "s" residual set form


def _head_noun(restr: Term, var: Var) -> str:
    for n in subterms(restr):
        if (isinstance(n, Compound) and not is_quant(n) and not is_set_form(n)
                and n.args and n.args[0] == var):
            return n.functor
    return "?"


def occurrences(t: Term) -> List[Occurrence]:
    found = []
    for path, node, _ in _walk(t):
        if is_quant(node) and isinstance(node.args[0], Var):
            det = node.functor[len(QUANT_PREFIX):]
            found.append((det, _head_noun(node.args[1], node.args[0]), path, "q"))
        elif is_set_form(node):
            det = node.functor[len(SET_PREFIX):]
            arg = node.args[0]
            if isinstance(arg, Atom):
                noun = arg.name
            elif isinstance(arg, Lam):
                noun = _head_noun(arg.body, arg.param)
            else:
                noun = "?"
            found.append((det, noun, path, "s"))
    counts: Dict[str, int] = {}
    for det, _, _, _ in found:
        counts[det] = counts.get(det, 0) + 1
    out = []
    for det, noun, path, kind in found:
        label = det if counts[det] == 1 else f"{det}-{noun}"
        out.append(Occurrence(label, det, noun, path, kind))
    return out


def _resolve(occs: List[Occurrence], name: str) -> List[Occurrence]:
    hits = [o for o in occs
            if name in (o.label, o.det, f"{o.det}-{o.noun}")]
    if not hits:
        raise ReadingError(f"no determiner occurrence named {name!r}")
    return hits


def _in_scope(outer: tuple, inner: tuple) -> bool:
    """Does the path inner lie in the restriction or body of the quantifier
    at the path outer?"""
    k = len(outer)
    return len(inner) > k and inner[:k] == outer and inner[k] in (1, 2)


def outscopes(reading, d1: str, d2: str) -> bool:
    """Does some d1 quantifier contain a d2 occurrence in its scope?
    ReadingError when either name matches no occurrence."""
    t = reading.term if isinstance(reading, Reading) else reading
    occs = occurrences(t)
    outer, inner = _resolve(occs, d1), _resolve(occs, d2)
    return any(o1.kind == "q" and _in_scope(o1.path, o2.path)
               for o1 in outer for o2 in inner)


def scope_profile(t: Term) -> frozenset:
    """All (outer label, inner label) pairs ordered by containment."""
    return profile_of(occurrences(t))


def profile_of(occs: List[Occurrence]) -> frozenset:
    """The scope profile of the term whose occurrences occs are."""
    return frozenset((o1.label, o2.label) for o1 in occs if o1.kind == "q"
                     for o2 in occs if _in_scope(o1.path, o2.path))
