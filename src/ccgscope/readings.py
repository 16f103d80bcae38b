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

What one full-span form costs: readings_from_chart keeps one scope
summary for the call (_summarize), a dict keyed by id() of each compound,
lambda and up(.) object of the full-span forms.  It records whether the
object holds an up(.), whether it holds scope material (a set form or a
quantifier), and its free variables.  The forms of a chart share most of
their subterms, so each shared object is summarized once, and the chart
keeps every object alive for the call.  The filter
(_intensional_violation) walks with ancestor chains (_walk) only into
children that hold an up(.), so a form with none is not walked, and it
reads each up(.) body's free variables from the summary.  normalize
walks only into children that hold scope material (_assign_sites, which
also refuses a quantifier over a non-variable), reads each group of
equal set forms' restriction variables from the summary, rebuilds only
the ancestors of the promoted occurrences, substitutes into each
restriction past the recorded subterms that lack its parameter, takes
the free variables of the result when something was promoted from a
closed form, and ends in one canonicalize.  Called without a summary,
normalize makes one for its form.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Tuple

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
    TermError,
    Up,
    Var,
    apply_reduced,
    canonicalize,
    children,
    format_term,
    free_vars,
    is_and,
    is_quant,
    is_set_form,
    subterms,
)


class NoParseError(Exception):
    """The sentence has no full-span s derivation."""


class StructuralError(Exception):
    """A logical form is not in promotable shape."""


class ReadingError(Exception):
    """A named determiner occurrence is absent from a reading."""


class Reading(NamedTuple):
    term: Term
    multiplicity: int


# --- term walking ----------------------------------------------------------

def _walk(t: Term, descend: Optional[Callable[[Term], bool]] = None
          ) -> Iterator[Tuple[tuple, Term, tuple]]:
    """All (path, node, chain) triples in preorder, where chain holds the
    (ancestor, step) pairs from t down to node.  A path step is the
    argument index under a compound, "param" or "lam" under a lambda and
    "up" under up(.).  Given descend, the walk goes below a node only into
    the children that pass it.  Iterative, so any depth walks: each node's
    children go on the stack last first, as format_pieces pushes them."""
    stack = [((), t, ())]
    pop, push = stack.pop, stack.append
    while stack:
        entry = pop()
        yield entry
        path, node, chain = entry
        kind = type(node)
        if kind is Compound:
            args = node.args
            for i in range(len(args) - 1, -1, -1):
                if descend is None or descend(args[i]):
                    push((path + (i,), args[i], chain + ((node, i),)))
        elif kind is Lam:
            if descend is None or descend(node.body):
                push((path + ("lam",), node.body, chain + ((node, "lam"),)))
            if descend is None or descend(node.param):
                push((path + ("param",), node.param, chain + ((node, "param"),)))
        elif kind is Up:
            if descend is None or descend(node.body):
                push((path + ("up",), node.body, chain + ((node, "up"),)))
        elif kind is not Var and kind is not Atom:
            raise TermError(f"not a term: {node!r}")


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


# --- the scope summary -------------------------------------------------------

# The facts of one node: whether it holds an up(.), whether it holds scope
# material (a set form or a quantifier), and its free variables.  A plain
# tuple read at these indices, as the summary holds one per object.
_UP, _SCOPE, _FREE = 0, 1, 2
_Facts = Tuple[bool, bool, frozenset]
_LEAF: _Facts = (False, False, frozenset())


def _summarize(t: Term, summary: Dict[int, _Facts]) -> Dict[int, _Facts]:
    """summary, with the facts of every compound, lambda and up(.) object
    in t, keyed by id(): a caller keeps each object alive while its id is
    a key.  Post-order and iterative; a subterm already summarized, here
    or in an earlier form sharing it, is not entered again."""
    stack = [(t, False)]
    pop, push = stack.pop, stack.append
    while stack:
        node, ready = pop()
        kind = type(node)
        if not ready:
            if kind is not Var and kind is not Atom and id(node) not in summary:
                push((node, True))
                stack.extend([(k, False) for k in children(node)])
            continue
        # A quantifier binds its variable, a lambda its parameter, in what
        # they hold (as free_vars takes them); the binder itself is no
        # free occurrence.
        kids, bound, scope = children(node), None, False
        if kind is Compound:
            scope = is_quant(node) or is_set_form(node)
            if scope and len(kids) == 3 and type(kids[0]) is Var:
                bound = kids[0]
        elif kind is Lam:
            bound = node.param
        up, names, parts = kind is Up, [], []
        for a in kids:
            ka = type(a)
            if ka is Var:
                names.append(a)
            elif ka is not Atom:
                facts = summary[id(a)]
                up = up or facts[_UP]
                scope = scope or facts[_SCOPE]
                if facts[_FREE]:
                    parts.append(facts[_FREE])
        if names or len(parts) > 1:
            free = frozenset(names).union(*parts)
        else:
            free = parts[0] if parts else _LEAF[_FREE]
        if bound is not None and bound in free:
            free = free - {bound}
        summary[id(node)] = (up, scope, free)
    return summary


def _facts(t: Term, summary: Dict[int, _Facts]) -> _Facts:
    """The summarized facts of t, a variable and an atom included."""
    if type(t) is Var:
        return (False, False, frozenset((t,)))
    return summary.get(id(t), _LEAF)


# --- promotion site assignment ---------------------------------------------

class _Wrap(NamedTuple):
    site: tuple
    det: str
    var: Var
    restriction: tuple    # (path, node) of the argument used as restriction
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


def _float_position(chain: tuple, summary: Dict[int, _Facts]) -> bool:
    if not chain:
        return False
    node, step = chain[-1]
    if not isinstance(node, Compound):
        return False
    return any(type(a) is Up and summary[id(a)][_SCOPE]
               for i, a in enumerate(node.args) if i != step)


def _single_site(chain: tuple, path: tuple, summary: Dict[int, _Facts]) -> Optional[tuple]:
    """Site for one closed occurrence; None means it stays in place."""
    if any(isinstance(n, Up) for n, _ in chain):
        return _low_site(chain, path)
    if _float_position(chain, summary):
        return None
    return _low_site(chain, path)


def _dependent_site(chain: tuple, path: tuple, free: set) -> tuple:
    binder_idx = _binder_index(chain, free)
    assert binder_idx is not None
    below = chain[binder_idx + 1:]
    if not any(is_quant(n) for n, _ in below) or any(is_and(n) for n, _ in below):
        return _low_site(chain, path)
    return path[:binder_idx + 1]


def _assign_sites(t: Term, summary: Dict[int, _Facts]
                  ) -> Tuple[List[_Wrap], Dict[tuple, Var], Dict[tuple, tuple]]:
    """Where each set form is promoted, the variable that replaces each
    promoted occurrence, and each occurrence's chain.  The walk enters
    only what holds scope material (summary), so it meets every set form
    and every quantifier; StructuralError for a quantifier over a
    non-variable comes from it, so first."""
    occ_list = []
    if _facts(t, summary)[_SCOPE]:
        for entry in _walk(t, lambda k: summary.get(id(k), _LEAF)[_SCOPE]):
            node = entry[1]
            if type(node) is Compound:
                if is_set_form(node):
                    occ_list.append(entry)
                elif is_quant(node) and type(node.args[0]) is not Var:
                    raise StructuralError(
                        "quantifier with a non-variable in its variable position")
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
        wraps.append(_Wrap(site, node.functor[len(SET_PREFIX):], var,
                           (paths[0] + (0,), node.args[0]),
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
        fv = _facts(node.args[0], summary)[_FREE]
        bound_free = {p: _visible(chains[p]).intersection(fv) for p in paths} if fv else {}

        if any(bound_free.values()):
            for p in paths:
                if bound_free[p]:
                    site = _dependent_site(chains[p], p, bound_free[p])
                else:
                    site = _single_site(chains[p], p, summary)
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
            elif dominated and all(_float_position(chains[p], summary) for p in paths):
                pass  # every copy floats beside an up(.): handle one by one
            elif not any(is_quant(n) or isinstance(n, Up)
                         for p in paths for n, _ in chains[p][len(prefix) + 1:]):
                promote(node, paths, prefix)
                dead.extend(paths[1:])
                continue

        for p in paths:
            site = _single_site(chains[p], p, summary)
            if site is not None:
                promote(node, [p], site)

    return wraps, replace, chains


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


def normalize(t: Term, summary: Optional[Dict[int, _Facts]] = None) -> Term:
    """Promote set forms to scoped quantifiers; result in canonical form (canonicalize).

    t is a full-span chart form, so canonical (rule results are built by
    apply_reduced, lexical items are renamed copies of LexEntry.chart_cat),
    and there a restriction's apply_reduced gives what terms.apply would:
    the parameter becomes a fresh _q<n> variable, so the eta and and/2
    rewrites find nothing new; nothing binds a quantifier slot or a lambda
    parameter to a non-variable; records skip only what lacks the parameter.
    summary holds t's facts (_summarize); without it, normalize makes one.
    """
    if summary is None:
        summary = _summarize(t, {})
    wraps, replace, chains = _assign_sites(t, summary)
    by_site: Dict[tuple, List[_Wrap]] = {}
    for w in wraps:
        by_site.setdefault(w.site, []).append(w)
    # Every ancestor of a replaced occurrence, every site among them, with
    # its chain.  They are rebuilt deepest first; the rest is kept as is.
    above: Dict[tuple, Tuple[Term, tuple]] = {}
    for p in replace:
        for i in range(len(p) - 1, -1, -1):
            if p[:i] in above:
                break
            above[p[:i]] = (chains[p][i][0], chains[p][:i])
    built: Dict[tuple, Term] = dict(replace)
    for path in sorted(above, key=len, reverse=True):
        if path in replace:
            continue
        node, chain = above[path]
        kind = type(node)
        if kind is Compound:
            out = Compound(node.functor, tuple([
                built.get(path + (i,), a) for i, a in enumerate(node.args)]))
        elif kind is Lam:
            out = Lam(node.param, built.get(path + ("lam",), node.body))
        else:
            out = Up(built.get(path + ("up",), node.body))
        for w in reversed(_ordered(by_site.get(path, []), node, path, chain)):
            body = built.get(*w.restriction)
            if isinstance(body, Lam):
                body = apply_reduced({body.param: w.var}, body.body)
            elif isinstance(body, Atom):
                body = Compound(body.name, (w.var,))
            else:
                raise StructuralError(f"unpromotable restriction {format_term(body)}")
            out = Compound(QUANT_PREFIX + w.det, (w.var, body, out))
        built[path] = out

    result = built.get((), t)
    # Untouched, the result is t: nothing was promoted, so nothing unbound.
    if result is not t and not _facts(t, summary)[_FREE] and free_vars(result):
        raise StructuralError(
            f"promotion left variables unbound in {format_term(result)}")
    return canonicalize(result)


# --- filters ----------------------------------------------------------------

def _intensional_violation(t: Term, summary: Dict[int, _Facts]) -> bool:
    """A quantifier binding into an up(.) argument it cannot scope over.

    Binding into an intensional argument is tolerated only when the
    binder sits immediately on a coordination of such arguments and no
    other quantifier intervenes above the up(.).  The walk (_walk, with
    ancestor chains) enters only what holds an up(.), so a form without
    one is not walked.  summary holds t's facts (_summarize).
    """
    if not _facts(t, summary)[_UP]:
        return False
    for _, node, chain in _walk(t, lambda k: summary.get(id(k), _LEAF)[_UP]):
        if type(node) is not Up:
            continue
        free = _facts(node.body, summary)[_FREE]
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
    # One summary for the call: full-span forms share most of their
    # subterms, and the chart keeps every summarized object alive.
    summary: Dict[int, _Facts] = {}
    for item in full:
        lf = item.cat.sem
        _summarize(lf, summary)
        if _intensional_violation(lf, summary):
            continue
        canon = normalize(lf, summary)
        groups[canon] = groups.get(canon, 0) + counts[item.id]
    out = [Reading(term, mult) for term, mult in groups.items()]
    out.sort(key=lambda r: format_term(r.term))
    return out


def readings(tokens, lexicon: Optional[Lexicon] = None) -> List[Reading]:
    return readings_from_chart(parse(tokens, lexicon or default_lexicon()))


# --- determiner occurrences and scope order ----------------------------------

class Occurrence(NamedTuple):
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
        if type(node) is not Compound:
            continue
        if is_quant(node) and type(node.args[0]) is Var:
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
    names = labels([(det, noun) for det, noun, _, _ in found])
    return [Occurrence(label, *occ) for label, occ in zip(names, found)]


def labels(pairs: List[Tuple[str, str]]) -> List[str]:
    """Name each quantifier, given as a (det, noun) pair: its det when no
    other pair has that det, else det-noun.  occurrences names a form's
    quantifiers this way, and baseline.Orderings a skeleton's leaves."""
    counts: Dict[str, int] = {}
    for det, _ in pairs:
        counts[det] = counts.get(det, 0) + 1
    return [det if counts[det] == 1 else f"{det}-{noun}" for det, noun in pairs]


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
