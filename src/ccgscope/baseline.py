"""Quantifier-ordering baseline over predicate-argument skeletons.

A skeleton is a term whose quantified argument positions are marked
leaves q?(det, V, restriction); restrictions may embed further marked
leaves (complex NPs).  `enumerate_orderings` realizes every linear order
of the marked quantifiers as a nested q-<det> form, and `uvc_filter`
keeps the closed ones (the unbound variable constraint).  `compare`
relates the surviving forms to the readings the grammar actually
derives for the same sentence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations
from typing import List, Optional, Tuple

from .chart import ResourceError
from .lexicon import Lexicon, default_lexicon
from .readings import Reading, occurrences, readings, scope_profile
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
MAX_QUANTIFIERS = 8


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


def enumerate_orderings(sk: Term) -> List[Term]:
    """One scoped form per linear order of the marked quantifiers.

    Quantifiers are applied in sequence, outermost last, each carrying its
    own (erased) restriction.  A quantifier whose leaf sits inside another
    leaf's restriction is still open for application right when its host's
    turn comes, so when it immediately follows the host in the order its
    q-form lands inside the host's restriction; in every other position it
    joins the top-level nest around the predicate core.  Nothing is
    filtered here: orders that leave a cross-leaf variable unbound are
    emitted too.
    """
    leaves = skeleton_leaves(sk)
    if len(leaves) > MAX_QUANTIFIERS:
        raise ResourceError(
            f"{len(leaves)} quantifiers exceed the limit of {MAX_QUANTIFIERS}")
    core = _erase(sk)
    host = _hosts(leaves)

    def q(leaf: Leaf, restriction: Term, body: Term) -> Term:
        return Compound(QUANT_PREFIX + leaf.det, (leaf.var, restriction, body))

    erased = {leaf.var: _erase(leaf.restriction) for leaf in leaves}
    forms = []
    for order in permutations(leaves):
        restr = dict(erased)  # the folding below rewrites host entries
        pending = list(order)
        for i in range(len(pending) - 1, 0, -1):
            leaf = pending[i]
            h = host.get(leaf.var)
            if h is not None and pending[i - 1].var == h:
                restr[h] = q(leaf, restr[leaf.var], restr[h])
                del pending[i]
        t = core
        for leaf in reversed(pending):
            t = q(leaf, restr[leaf.var], t)
        forms.append(t)
    return forms


def uvc_filter(forms: List[Term]) -> List[Term]:
    return [f for f in forms if not free_vars(f)]


def nesting_order(form: Term) -> Tuple[str, ...]:
    """Determiners of a scoped form in preorder, outermost first."""
    return tuple(t.functor[len(QUANT_PREFIX):] for t in subterms(form)
                 if isinstance(t, Compound) and t.functor.startswith(QUANT_PREFIX))


@dataclass(frozen=True)
class CompareReport:
    tokens: Tuple[str, ...]
    enumerated: Tuple[Term, ...]
    survivors: Tuple[Term, ...]
    ccg: Tuple[Reading, ...]
    gap: Tuple[Term, ...]   # UVC-surviving forms no derived reading realizes


def _labels(t: Term) -> frozenset:
    return frozenset(o.label for o in occurrences(t))


def _shown(labels: frozenset) -> str:
    return "{" + ", ".join(sorted(labels)) + "}"


def _check_labels(form: Term, derived: List[Reading]) -> None:
    """Raise BaselineError when the skeleton's quantifiers are not the
    sentence's: scope profiles name quantifiers by label, so a mismatch
    would leave every order unrealized."""
    want = _labels(form)
    for r in derived:
        got = _labels(r.term)
        if got != want:
            raise BaselineError(
                f"skeleton quantifiers {_shown(want)} do not match "
                f"the sentence's {_shown(got)}")


def compare(tokens, sk: Term, lexicon: Optional[Lexicon] = None) -> CompareReport:
    """Baseline orders vs derived readings, matched on scope profiles.

    A derived reading realizes a baseline form when every scope pair the
    reading asserts also holds in the form; forms realized by no reading
    are the report's gap.  (A reading with residual set forms asserts
    fewer pairs and may realize several forms.)  Each surviving form and
    each reading gets its profile computed once, so matching costs one
    profile per form, not one per (form, reading) pair.  A skeleton whose
    quantifier labels differ from a reading's does not fit the sentence
    and raises BaselineError.
    """
    forms = enumerate_orderings(sk)
    survivors = uvc_filter(forms)
    derived = readings(tokens, lexicon or default_lexicon())
    _check_labels(forms[0], derived)
    profiles = [scope_profile(r.term) for r in derived]
    gap = [f for f, fp in zip(survivors, map(scope_profile, survivors))
           if not any(p <= fp for p in profiles)]
    return CompareReport(tuple(tokens), tuple(forms), tuple(survivors),
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
