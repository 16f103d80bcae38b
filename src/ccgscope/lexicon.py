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
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass
from functools import cached_property
from importlib import resources
from typing import Iterable, List, Tuple, Union

from .categories import (
    Atomic,
    Category,
    CatError,
    Slash,
    cat_key,
    cat_shape,
    cat_vars,
    parse_cat,
    replace_result_sem,
    result_atomic,
    standardize_apart,
    subst_cat,
)
from .terms import Atom, Compound, Lam, TermError, Var


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


def instantiate_raised(lexeme: Tuple[str, ...], num: str, qsym: str, ssym: str,
                       tset: Iterable[Category]) -> List[LexEntry]:
    """All determiner entries for one @raise declaration.

    Order: plain entry first, then per type T (declaration order) the
    narrow forward, narrow backward, wide forward, wide backward entries.
    Wide entries exist only for types whose result-most atomic has sort s;
    duplicates (by category key) are dropped.  Every np the determiner
    builds carries num(sem, sg|pl) so verbs can state subject agreement.
    """
    if num not in ("sg", "pl"):
        raise LexiconError(f"number must be sg or pl, not {num!r}")
    tag = " ".join(lexeme)
    out: List[LexEntry] = []
    seen = set()

    def push(cat: Category) -> None:
        entry = LexEntry(lexeme, cat, tag)
        if entry.key not in seen:
            seen.add(entry.key)
            out.append(entry)

    def np_of(sem) -> Atomic:
        return Atomic("np", Compound("num", (sem, Atom(num))))

    n_var = Var("N")
    plain = Slash("/", np_of(Compound(ssym, (n_var,))), Atomic("n", n_var))
    push(plain)

    for t in tset:
        taken = {v.id for v in cat_vars(t)}
        nv = _fresh_var("N", taken)
        np_narrow = np_of(Compound(ssym, (nv,)))
        # One shared copy of T: the argument's inner T and the result T
        # carry the same variables, so applying the entry threads the
        # embedded functor's semantics straight through.
        push(Slash("/", Slash("/", t, Slash("\\", t, np_narrow)), Atomic("n", nv)))
        push(Slash("/", Slash("\\", t, Slash("/", t, np_narrow)), Atomic("n", nv)))

        if result_atomic(t).sort != "s":
            continue
        core = result_atomic(t).sem
        if not isinstance(core, Var):
            raise LexiconError(f"type set entry {cat_key(t)} has a non-variable result")
        vv = _fresh_var("V", taken)
        t_out = replace_result_sem(t, Compound(qsym, (vv, nv, core)))
        np_wide = np_of(vv)
        n_prop = Atomic("n", Lam(vv, nv))
        push(Slash("/", Slash("/", t_out, Slash("\\", t, np_wide)), n_prop))
        push(Slash("/", Slash("\\", t_out, Slash("/", t, np_wide)), n_prop))
    return out


class Lexicon:
    def __init__(self) -> None:
        self.entries: List[LexEntry] = []
        self._by_first: dict = {}
        self._keys: set = set()  # (lexeme, cat_key) of every entry
        self._fresh = itertools.count(1)

    def add(self, entry: LexEntry) -> None:
        key = (entry.lexeme, entry.key)
        if key in self._keys:
            warnings.warn(f"duplicate lexicon entry for {' '.join(entry.lexeme)!r}")
            return
        self._keys.add(key)
        self.entries.append(entry)
        self._by_first.setdefault(entry.lexeme[0], []).append(entry)

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


def load_lexicon(text: str) -> Lexicon:
    lex = Lexicon()
    tset: List[Category] = []
    raises: List[Tuple[int, Tuple[str, ...], str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            if line.startswith("@tset"):
                body = line[len("@tset"):].strip()
                tset = [parse_cat(part.strip()) for part in _split_top(body)]
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
                lex.add(LexEntry(lexeme, parse_cat(rhs.strip()), " ".join(lexeme)))
            else:
                raise LexiconError("expected 'lexeme :: category', @tset or @raise")
        except (CatError, TermError, LexiconError) as exc:
            raise LexiconError(f"line {lineno}: {exc}") from exc
    for lineno, lexeme, num, qsym, ssym in raises:
        try:
            if not lexeme:
                raise LexiconError("empty lexeme")
            for entry in instantiate_raised(lexeme, num, qsym, ssym, tset):
                lex.add(entry)
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
