"""Lexicon: fixed entries plus determiner entries generated by type raising.

A lexicon file holds three kinds of lines (``#`` starts a comment):

    lexeme tokens :: category
    @tset cat, cat, ...
    @raise word [word ...] sg|pl q-sym s-sym

``@raise`` expands a determiner into its full entry family over the
declared type set: a plain set-denoting entry np:num(s-sym(N'), sg|pl)/n:N',
a pair of narrow-scope raised entries per type T (forward and backward),
and a pair of wide-scope quantifier entries per type T whose final result
is s.  Expansion happens after the whole file is read, against the last
@tset.  The q-sym must be ``q-`` followed by a name, and the s-sym ``s-``
followed by one (a name: letters, digits, ``_``, ``?`` and ``-``).  The
num(...) wrapper on every determiner-built np carries the determiner's
grammatical number; verb subject slots that require a number state it
there, so mismatches fail in unification.

Every family names its noun variable N' and its quantifier variable V'.
The term reader ends a name at a prime, so no text spells N' or V', and
no type read from text holds them: they are fresh for every type
without a search, as parse_cat's V'1, V'2, ... are (categories).

A category written in a ``::`` line or an ``@tset`` line must not hold a
quantifier q-<det>(V, R, B) whose variable slot V is a non-variable: such
a quantifier binds nothing, and the line is refused with a LexiconError
naming it.  Only a line whose category text spells ``q-`` is walked for
one: a quantifier's functor is read verbatim from the text, and no
``::`` or ``@tset`` line of the bundled lexicon spells it, so loading
that lexicon walks no category.  Raised entries need no check: the
quantifier each wide entry builds binds V', fresh for its type, and the
types are checked.
With the chart's rules, which never bind a quantifier's variable to a
non-variable (terms.apply_reduced), every constituent the chart builds
from a loaded lexicon is then well-formed.

Duplicates.  Each line is one declaration: a ``::`` line declares one
entry, an ``@raise`` line its whole family.  An entry's one identity is
its chart form's key (chart_key), so two entries whose categories differ
only in set forms or and/2 nesting are one entry, as they are to a
chart.  An entry whose chart form is a variant of that of an entry of
the same lexeme from an earlier declaration is dropped, with a
UserWarning ``line N: duplicate lexicon entry for 'lexeme' dropped:
category`` naming the line that declared it; the earlier entry stays.
Entries of one declaration are never compared with one another, because
no family can hold two variants once its type set has none (the type set
is deduplicated by chart form key, first occurrence kept, when the first
@raise expands).  The chart form rewrites each atomic's semantics on its
own, so two chart forms of one family differ in one of these ways:

- the plain entry's result, np, is atomic; every raised entry's result
  is a slash category;
- a narrow entry's argument is n:N', a variable, and a wide entry's is
  n:V'^N', a lambda and no set form;
- a forward entry's inner slash is ``\\`` and a backward entry's is
  ``/``, at the same position;
- two entries of one kind, built over types T1 and T2, hold the chart
  forms of T1 and T2 intact at the same position (a wide entry rewrites
  only the result semantics of its first copy of T; the copy in its
  argument is whole).  A variant renaming of one entry onto the other
  would map T1's chart form onto T2's, which the deduplicated set excludes.

So duplicates need keys only across declarations, and only between
entries of the same lexeme and the same shape (cat_shape), which is
compared first.  A family's entries are born with their shapes: the type
set works out, once per type, the shape of each raised entry kind over
it (TypeSet.types), so no family is walked for a shape.  A load reads
each distinct category text once, so ``::`` entries and types with
equal text share one category, which nothing changes.  Loading the
bundled lexicon computes one key per type and none per entry.

Chart copies.  A chart takes an entry in its chart form, renamed apart
from every other category the lexicon has renamed, and recorded as it
is made: subst_cat with no bindings writes the variable record of each
compound, lambda and up(.) term of the copy and returns it as is
(terms).  The chart form depends on the entry alone and is made once:
at load only for an entry the duplicate check compares, else on first
need in a parse.  A lexicon keeps its copies per entry; the n-th
occurrence of an entry in a sentence enters as its n-th copy
(chart_copy), and a chart files it as it files a rule result (chart,
"Keys").  Only the duplicate check reads chart_key.
"""

from __future__ import annotations

import itertools
import os
import warnings
from functools import cached_property
from typing import Iterable, List, NamedTuple, Optional, Sequence, Tuple, Union

from .categories import (
    Atomic,
    Category,
    CatError,
    Slash,
    atomics,
    cat_key,
    cat_shape,
    cat_text,
    parse_cat,
    replace_result_sem,
    result_atomic,
    standardize_apart,
    subst_cat,
)
from .terms import (
    _NAME,
    QUANT_PREFIX,
    SET_PREFIX,
    Atom,
    Compound,
    Lam,
    TermError,
    Var,
    format_term,
    unbound_quantifier,
)


class LexiconError(Exception):
    """Raised for malformed lexicon files or unknown tokens."""


class UnknownTokenError(LexiconError):
    """No lexicon entry matches the token at this position."""


class _LexEntryFields(NamedTuple):
    lexeme: tuple
    cat: Category
    tag: str


class LexEntry(_LexEntryFields):
    """A lexical entry, told apart by chart_key.  Its chart form, key and
    shape are computed once, on first use, and stored on the entry: the
    class has no __slots__, so they live in the instance's __dict__.  A
    raised entry is born with its shape stored (instantiate_raised)."""

    @cached_property
    def chart_cat(self) -> Category:
        """cat in chart form, as subst_cat leaves every chart category:
        set forms eta-reduced and and/2 nested to the left."""
        return subst_cat({}, self.cat)

    @cached_property
    def chart_key(self) -> tuple:
        """cat_key(chart_cat): the key of every renamed copy of chart_cat,
        as a one-to-one renaming never changes a key (categories).  The
        duplicate check compares it; a chart does not read it."""
        return cat_key(self.chart_cat)

    @cached_property
    def shape(self) -> Union[str, tuple]:
        """cat_shape(cat), which is chart_cat's shape too."""
        return cat_shape(self.cat)


# The noun and quantifier variables of every @raise family (module
# docstring): no text spells a primed name, so no type holds them.
_NOUN = Var("N'")
_QVAR = Var("V'")
# The shape of every family's plain entry, np/n.
_PLAIN_SHAPE = Slash("/", "np", "n")


class TypeSet:
    """The types an @raise expands over.  The work that depends on the
    types alone is done once, when the first family is built (types)."""

    def __init__(self, cats: Iterable[Category]) -> None:
        self.cats = tuple(cats)

    @cached_property
    def types(self) -> Tuple[Tuple[Category, Optional[Var], Slash, Slash], ...]:
        """(T, R, forward, backward) per type T, deduplicated by its chart
        form's key, first occurrence kept, in declaration order: R is T's
        result semantics when T's result sort is s, else None; forward and
        backward are the shapes (T/(T\\np))/n and (T\\(T/np))/n of the
        forward and the backward raised entries over T, narrow and wide
        alike.  LexiconError for a type of result sort s whose result
        semantics is not a variable."""
        out, keys = [], set()
        for t in self.cats:
            key = cat_key(subst_cat({}, t))
            if key in keys:
                continue
            keys.add(key)
            core = result_atomic(t)
            if core.sort == "s" and not isinstance(core.sem, Var):
                raise LexiconError(
                    f"type set entry {cat_text(t)} has a non-variable result")
            shape = cat_shape(t)
            out.append((t, core.sem if core.sort == "s" else None,
                        Slash("/", Slash("/", shape, Slash("\\", shape, "np")), "n"),
                        Slash("/", Slash("\\", shape, Slash("/", shape, "np")), "n")))
        return tuple(out)


def instantiate_raised(lexeme: Tuple[str, ...], num: str, qsym: str, ssym: str,
                       tset: TypeSet) -> List[LexEntry]:
    """All determiner entries for one @raise declaration.

    Order: plain entry first, then per type T (declaration order) the
    narrow forward, narrow backward, wide forward, wide backward entries.
    Wide entries exist only for types whose result-most atomic has sort s.
    A type whose chart form is a variant of an earlier one's adds
    nothing, and no two entries' chart forms are variants (module
    docstring).  Every np the determiner builds carries num(sem, sg|pl)
    so verbs can state subject agreement.
    The q-symbol must be q- and a name, the s-symbol s- and a name, so
    that the wide entries quantify and every printed form reads back.
    """
    if num not in ("sg", "pl"):
        raise LexiconError(f"number must be sg or pl, not {num!r}")
    for kind, prefix, sym in (("q", QUANT_PREFIX, qsym), ("s", SET_PREFIX, ssym)):
        if not (sym.startswith(prefix) and _NAME.fullmatch(sym, len(prefix))):
            raise LexiconError(f"{kind}-symbol must be {prefix} and a name, not {sym!r}")
    tag = " ".join(lexeme)
    number = Atom(num)

    def entry(cat: Category, shape: Slash) -> LexEntry:
        # Born with its shape, so neither the duplicate check nor a chart
        # walks it for one (LexEntry.shape).
        made = LexEntry(lexeme, cat, tag)
        made.shape = shape
        return made

    def np_of(sem) -> Atomic:
        return Atomic("np", Compound("num", (sem, number)))

    np_narrow = np_of(Compound(ssym, (_NOUN,)))
    n_narrow = Atomic("n", _NOUN)
    np_wide = np_of(_QVAR)
    n_wide = Atomic("n", Lam(_QVAR, _NOUN))
    out = [entry(Slash("/", np_narrow, n_narrow), _PLAIN_SHAPE)]
    for t, core, forward, backward in tset.types:
        # One shared copy of T: the argument's inner T and the result T
        # carry the same variables, so applying the entry threads the
        # embedded functor's semantics straight through.
        out.append(entry(Slash("/", Slash("/", t, Slash("\\", t, np_narrow)), n_narrow), forward))
        out.append(entry(Slash("/", Slash("\\", t, Slash("/", t, np_narrow)), n_narrow), backward))
        if core is None:
            continue
        t_out = replace_result_sem(t, Compound(qsym, (_QVAR, _NOUN, core)))
        out.append(entry(Slash("/", Slash("/", t_out, Slash("\\", t, np_wide)), n_wide), forward))
        out.append(entry(Slash("/", Slash("\\", t_out, Slash("/", t, np_wide)), n_wide), backward))
    return out


class Lexicon:
    def __init__(self) -> None:
        self.entries: List[LexEntry] = []
        self._by_first: dict = {}
        self._fresh = itertools.count(1)
        # id(entry) -> (entry, its chart copies in order); the entry is
        # kept so that its id is never reused while the table holds it.
        self._copies: dict = {}

    def _add(self, entries: Sequence[LexEntry], line: int) -> None:
        """Add the entries of one declaration, all of one lexeme, no two
        of them chart form variants of one another, as load_lexicon, the
        only caller, keeps them (module docstring).

        An entry whose chart form is a variant of that of an earlier
        declaration's entry of its lexeme is dropped with a UserWarning,
        prefixed ``line N: ``.  Shapes are compared first, so only an entry
        with an earlier peer of its shape is keyed.
        """
        if not entries:
            return
        lexeme = entries[0].lexeme
        peers = self._by_first.setdefault(lexeme[0], [])
        earlier = [e for e in peers if e.lexeme == lexeme]
        if earlier:
            kept = []
            for entry in entries:
                if any(e.shape == entry.shape and e.chart_key == entry.chart_key for e in earlier):
                    warnings.warn(f"line {line}: duplicate lexicon entry for"
                                  f" {entry.tag!r} dropped: {cat_text(entry.cat)}")
                else:
                    kept.append(entry)
            entries = kept
        self.entries.extend(entries)
        peers.extend(entries)

    def lookup(self, tokens: Tuple[str, ...], i: int) -> List[Tuple[LexEntry, int]]:
        """Entries whose lexeme matches tokens[i:], as stored: a category
        meets another's only renamed apart, as chart_copy gives it.

        Returns (entry, consumed) pairs, none when nothing matches at this
        position (a token inside a multi-word lexeme, or an unknown one).
        """
        matches = []
        for entry in self._by_first.get(tokens[i], ()):
            k = len(entry.lexeme)
            if tuple(tokens[i:i + k]) == entry.lexeme:
                matches.append((entry, k))
        return matches

    def chart_copy(self, entry: LexEntry, n: int) -> Category:
        """entry's n-th chart copy, counting from 0: entry.chart_cat with
        every variable renamed apart from all this lexicon has renamed,
        and recorded as it is made (subst_cat with no bindings, which
        returns the renamed copy as is and writes the variable record of
        each of its compound, lambda and up(.) terms; see terms).  Made on
        first need and returned as is from then on.  No two copies share a
        variable, so a chart takes an entry's n-th occurrence as its n-th
        copy, and files it as it files a rule result (chart, "Keys")."""
        copies = self._copies.setdefault(id(entry), (entry, []))[1]
        while len(copies) <= n:
            copies.append(subst_cat({}, standardize_apart(entry.chart_cat, self._fresh)))
        return copies[n]

    def unknown_token(self, tokens: Tuple[str, ...], i: int) -> UnknownTokenError:
        """The error for tokens[i] when no entry matches there.  A word with
        an entry of its own always matches, so any lexeme containing the
        word is multi-word; the message names them."""
        word = tokens[i]
        inside = dict.fromkeys(" ".join(e.lexeme) for e in self.entries if word in e.lexeme)
        hint = f" (only in {', '.join(map(repr, inside))})" if inside else ""
        return UnknownTokenError(f"unknown token {word!r} at position {i}{hint}")


def _checked(text: str, read: dict) -> Category:
    """The category text spells, unless it holds a quantifier over a
    non-variable.  A quantifier's functor is a name read verbatim from
    the text, so a text that does not spell QUANT_PREFIX holds none, and
    its category is not walked.  read maps each text already read to its
    category, which is returned again: a text is read once."""
    cat = read.get(text)
    if cat is not None:
        return cat
    cat = parse_cat(text)
    if QUANT_PREFIX in text:
        for at in atomics(cat):
            q = unbound_quantifier(at.sem)
            if q is not None:
                raise LexiconError(f"quantifier {q.functor} binds the non-variable"
                                   f" {format_term(q.args[0])}")
    read[text] = cat
    return cat


def load_lexicon(text: str) -> Lexicon:
    lex = Lexicon()
    tset = TypeSet(())
    # Category text -> category, for this load: entries and types with
    # equal text share one category, which nothing changes.
    read: dict = {}
    raises: List[Tuple[int, Tuple[str, ...], str, str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            if line.startswith("@tset"):
                body = line[len("@tset"):].strip()
                tset = TypeSet(_checked(part.strip(), read) for part in _split_top(body))
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
                cat = _checked(rhs.strip(), read)
                lex._add([LexEntry(lexeme, cat, " ".join(lexeme))], lineno)
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
            lex._add(instantiate_raised(lexeme, num, qsym, ssym, tset), lineno)
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


def data_text(name: str) -> str:
    """The text of a data file bundled with the package."""
    path = os.path.join(os.path.dirname(__file__), "data", name)
    with open(path, encoding="utf-8") as f:
        return f.read()


def default_lexicon() -> Lexicon:
    return load_lexicon(data_text("fragment.lex"))
