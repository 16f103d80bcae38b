"""Lexicon: fixed entries plus determiner entries generated by type raising.

A lexicon file holds three kinds of lines (``#`` starts a comment):

    lexeme tokens :: category
    @tset cat, cat, ...
    @raise word [word ...] sg|pl q-sym s-sym

``@raise`` expands a determiner into its full entry family over the
declared type set: a plain set-denoting entry np:num(s-sym(N), sg|pl)/n:N,
a pair of narrow-scope raised entries per type T (forward and backward),
and a pair of wide-scope quantifier entries per type T whose final result
is s.  Expansion happens after the whole file is read, against the last
@tset.  The num(...) wrapper on every determiner-built np carries the
determiner's grammatical number; verb subject slots that require a number
state it there, so mismatches fail in unification.

A category written in a ``::`` line or an ``@tset`` line must not hold a
quantifier q-<det>(V, R, B) whose variable slot V is a non-variable: such
a quantifier binds nothing, and the line is refused with a LexiconError
naming it.  Raised entries need no check: the quantifier each wide entry
builds binds a variable fresh for its type, and the types are checked.
With the chart's rules, which never bind a quantifier's variable to a
non-variable (terms.apply_reduced), every constituent the chart builds
from a loaded lexicon is then well-formed.

Duplicates.  Each line is one declaration: a ``::`` line declares one
entry, an ``@raise`` line its whole family.  An entry that is a variant
(same category up to variable names, compared by cat_key) of an entry of
the same lexeme from an earlier declaration is dropped, with a
UserWarning ``line N: duplicate lexicon entry for 'lexeme' dropped: key``
naming the line that declared it; the earlier entry stays.  Entries of
one declaration are never compared with one another, because no family
can hold two variants once its type set has no two variants (the type
set is deduplicated by key, first occurrence kept, when the first @raise
expands).  Two entries of one family differ in one of these ways:

- the plain entry's result, np, is atomic; every raised entry's result
  is a slash category;
- a narrow entry's argument is n:N, a variable, and a wide entry's is
  n:V^N, a lambda;
- a forward entry's inner slash is ``\\`` and a backward entry's is
  ``/``, at the same position;
- two entries of one kind, built over types T1 and T2, hold T1 and T2
  intact at the same position (a wide entry rewrites only the result
  semantics of its first copy of T; the copy in its argument is whole).
  A variant renaming of one entry onto the other would map T1 onto T2,
  making the two types variants, which the deduplicated set excludes.

So duplicates need keys only across declarations, and only between
entries of the same lexeme and the same shape (cat_shape), which is
compared first.  Loading the bundled lexicon computes one key per type
and none per entry.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass
from functools import cached_property
from importlib import resources
from typing import Iterable, List, Optional, Sequence, Tuple, Union

from .categories import (
    Atomic,
    Category,
    CatError,
    Slash,
    atomics,
    cat_key,
    cat_shape,
    cat_vars,
    parse_cat,
    replace_result_sem,
    result_atomic,
    standardize_apart,
    subst_cat,
)
from .terms import Atom, Compound, Lam, Term, TermError, Var, format_term, unbound_quantifier


class LexiconError(Exception):
    """Raised for malformed lexicon files or failed lookups."""


class UnknownTokenError(LexiconError):
    """No lexicon entry matches the token at this position."""


@dataclass(frozen=True)
class LexEntry:
    """A lexical entry.  Its key, chart form and shape are computed once,
    on first use, and stored on the entry."""
    lexeme: tuple
    cat: Category
    tag: str

    @cached_property
    def key(self) -> str:
        """cat_key(cat)."""
        return cat_key(self.cat)

    @cached_property
    def chart_cat(self) -> Category:
        """cat in chart form, as subst_cat leaves every chart category:
        set forms eta-reduced and and/2 nested to the left."""
        return subst_cat({}, self.cat)

    @cached_property
    def shape(self) -> Union[str, tuple]:
        """cat_shape(cat), which is chart_cat's shape too."""
        return cat_shape(self.cat)


def _fresh_var(stem: str, taken: set) -> Var:
    if stem not in taken:
        return Var(stem)
    n = 2
    while f"{stem}{n}" in taken:
        n += 1
    return Var(f"{stem}{n}")


@dataclass(frozen=True)
class RaisedType:
    """A type T of the type set, with what every family over it shares:
    the noun variable n, fresh for T, and for a T whose result sort is s,
    wide = (V, R): a variable fresh for T, and T's result semantics R."""
    t: Category
    n: Var
    wide: Optional[Tuple[Var, Term]]


class TypeSet:
    """The types an @raise expands over.  The work that depends on the
    types alone is done once, when the first family is built (types)."""

    def __init__(self, cats: Iterable[Category]) -> None:
        self.cats = tuple(cats)

    @cached_property
    def types(self) -> Tuple[RaisedType, ...]:
        """The types deduplicated by key, first occurrence kept, in
        declaration order.  LexiconError for a type whose result sort is s
        and whose result semantics is not a variable."""
        out, keys = [], set()
        for t in self.cats:
            key = cat_key(t)
            if key in keys:
                continue
            keys.add(key)
            taken = {v.id for v in cat_vars(t)}
            core = result_atomic(t)
            wide = None
            if core.sort == "s":
                if not isinstance(core.sem, Var):
                    raise LexiconError(f"type set entry {key} has a non-variable result")
                wide = (_fresh_var("V", taken), core.sem)
            out.append(RaisedType(t, _fresh_var("N", taken), wide))
        return tuple(out)


def instantiate_raised(lexeme: Tuple[str, ...], num: str, qsym: str, ssym: str,
                       tset: Union[TypeSet, Iterable[Category]]) -> List[LexEntry]:
    """All determiner entries for one @raise declaration.

    Order: plain entry first, then per type T (declaration order) the
    narrow forward, narrow backward, wide forward, wide backward entries.
    Wide entries exist only for types whose result-most atomic has sort s.
    A type that is a variant of an earlier one adds nothing, and no two
    entries are variants (module docstring).  Every np the determiner
    builds carries num(sem, sg|pl) so verbs can state subject agreement.
    """
    if num not in ("sg", "pl"):
        raise LexiconError(f"number must be sg or pl, not {num!r}")
    if not isinstance(tset, TypeSet):
        tset = TypeSet(tset)
    tag = " ".join(lexeme)
    number = Atom(num)

    def entry(cat: Category) -> LexEntry:
        return LexEntry(lexeme, cat, tag)

    def np_of(sem) -> Atomic:
        return Atomic("np", Compound("num", (sem, number)))

    n_var = Var("N")
    out = [entry(Slash("/", np_of(Compound(ssym, (n_var,))), Atomic("n", n_var)))]
    for rt in tset.types:
        t, nv = rt.t, rt.n
        np_narrow = np_of(Compound(ssym, (nv,)))
        n_narrow = Atomic("n", nv)
        # One shared copy of T: the argument's inner T and the result T
        # carry the same variables, so applying the entry threads the
        # embedded functor's semantics straight through.
        out.append(entry(Slash("/", Slash("/", t, Slash("\\", t, np_narrow)), n_narrow)))
        out.append(entry(Slash("/", Slash("\\", t, Slash("/", t, np_narrow)), n_narrow)))
        if rt.wide is None:
            continue
        vv, core = rt.wide
        t_out = replace_result_sem(t, Compound(qsym, (vv, nv, core)))
        np_wide = np_of(vv)
        n_wide = Atomic("n", Lam(vv, nv))
        out.append(entry(Slash("/", Slash("/", t_out, Slash("\\", t, np_wide)), n_wide)))
        out.append(entry(Slash("/", Slash("\\", t_out, Slash("/", t, np_wide)), n_wide)))
    return out


class Lexicon:
    def __init__(self) -> None:
        self.entries: List[LexEntry] = []
        self._by_first: dict = {}
        self._by_lexeme: dict = {}
        self._fresh = itertools.count(1)

    def add(self, entries: Sequence[LexEntry], line: Optional[int] = None) -> None:
        """Add the entries of one declaration, all of one lexeme.

        An entry that is a variant of an entry of the same lexeme from an
        earlier declaration is dropped with a UserWarning, prefixed with
        ``line N: `` when line is given; entries of this declaration are
        not compared with one another.  Shapes are compared before keys,
        so a key is computed only for an entry that has an earlier entry
        of its lexeme and shape.
        """
        if not entries:
            return
        lexeme = entries[0].lexeme
        earlier = self._by_lexeme.setdefault(lexeme, [])
        if earlier:
            kept = []
            for entry in entries:
                if any(e.shape == entry.shape and e.key == entry.key for e in earlier):
                    where = "" if line is None else f"line {line}: "
                    warnings.warn(f"{where}duplicate lexicon entry for"
                                  f" {entry.tag!r} dropped: {entry.key}")
                else:
                    kept.append(entry)
            entries = kept
        earlier.extend(entries)
        self.entries.extend(entries)
        self._by_first.setdefault(lexeme[0], []).extend(entries)

    def lookup(self, tokens: Tuple[str, ...], i: int) -> List[Tuple[LexEntry, int]]:
        """Entries whose lexeme matches tokens[i:], as stored: rename a
        category's variables with fresh before it meets another's.

        Returns (entry, consumed) pairs; raises UnknownTokenError when
        nothing matches at this position.
        """
        matches = []
        for entry in self._by_first.get(tokens[i], ()):
            k = len(entry.lexeme)
            if tuple(tokens[i:i + k]) == entry.lexeme:
                matches.append((entry, k))
        if not matches:
            raise self.unknown_token(tokens, i)
        return matches

    def fresh(self, cat: Category) -> Category:
        """cat with every variable renamed apart from all earlier ones."""
        return standardize_apart(cat, self._fresh)

    def unknown_token(self, tokens: Tuple[str, ...], i: int) -> UnknownTokenError:
        """The error for tokens[i] when no entry matches there.  A word with
        an entry of its own always matches, so any lexeme containing the
        word is multi-word; the message names them."""
        word = tokens[i]
        inside = dict.fromkeys(" ".join(e.lexeme) for e in self.entries if word in e.lexeme)
        hint = f" (only in {', '.join(map(repr, inside))})" if inside else ""
        return UnknownTokenError(f"unknown token {word!r} at position {i}{hint}")


def _checked(cat: Category) -> Category:
    """cat, unless it holds a quantifier over a non-variable."""
    for at in atomics(cat):
        q = unbound_quantifier(at.sem)
        if q is not None:
            raise LexiconError(f"quantifier {q.functor} binds the non-variable"
                               f" {format_term(q.args[0])}")
    return cat


def load_lexicon(text: str) -> Lexicon:
    lex = Lexicon()
    tset = TypeSet(())
    raises: List[Tuple[int, Tuple[str, ...], str, str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            if line.startswith("@tset"):
                body = line[len("@tset"):].strip()
                tset = TypeSet(_checked(parse_cat(part.strip())) for part in _split_top(body))
            elif line.startswith("@raise"):
                fields = line.split()
                if len(fields) < 5:
                    raise LexiconError(
                        "@raise needs a lexeme, a number (sg|pl), a q-symbol and an s-symbol")
                raises.append((lineno, tuple(fields[1:-3]), fields[-3], fields[-2], fields[-1]))
            elif "::" in line:
                lhs, rhs = line.split("::", 1)
                lexeme = tuple(lhs.split())
                if not lexeme:
                    raise LexiconError("empty lexeme")
                cat = _checked(parse_cat(rhs.strip()))
                lex.add([LexEntry(lexeme, cat, " ".join(lexeme))], lineno)
            else:
                raise LexiconError("expected 'lexeme :: category', @tset or @raise")
        except (CatError, TermError, LexiconError) as exc:
            raise LexiconError(f"line {lineno}: {exc}") from exc
        except RecursionError:
            raise LexiconError(f"line {lineno}: nested too deeply") from None
    for lineno, lexeme, num, qsym, ssym in raises:
        try:
            if not lexeme:
                raise LexiconError("empty lexeme")
            lex.add(instantiate_raised(lexeme, num, qsym, ssym, tset), lineno)
        except LexiconError as exc:
            raise LexiconError(f"line {lineno}: {exc}") from exc
    return lex


def _split_top(body: str) -> List[str]:
    """Split on commas not enclosed in parentheses."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(body):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append(body[start:i])
            start = i + 1
    tail = body[start:].strip()
    if tail:
        parts.append(tail)
    return [p for p in (part.strip() for part in parts) if p]


def default_lexicon() -> Lexicon:
    text = resources.files("ccgscope").joinpath("data/fragment.lex").read_text(encoding="utf-8")
    return load_lexicon(text)
