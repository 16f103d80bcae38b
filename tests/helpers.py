"""Golden-file rendering shared by the generator and the tests, the
all-pairs closure the tests use as an oracle for the chart, and the
entry-by-entry lexicon load they use as an oracle for load_lexicon, and
seeded PP chains and clause embeddings with their quantifier skeletons,
and record-free copies of terms.

Each golden names a sentence plus the full-span categories whose first
derivation it freezes; the rendered text is the pretty printer's output
for those derivations, blank-line separated, in the listed order.
"""

import random

from ccgscope.categories import (
    Atomic,
    Slash,
    atomics,
    cat_key,
    cat_vars,
    map_sems,
    parse_cat,
    replace_result_sem,
    result_atomic,
    unify_cat,
)
from ccgscope.chart import ROWS, Chart, Item, derivations, parse, pretty
from ccgscope.cli import tokenize
from ccgscope.lexicon import LexEntry, UnknownTokenError, _split_top, default_lexicon
from ccgscope.readings import _well_formed
from ccgscope.terms import Atom, Compound, Lam, Var, apply, children, eta_reduce_sets, with_children

GOLDENS = {
    "object_subject_scope.txt": (
        "every girl admired one saxophonist",
        ["s:q-one(v1, sax(v1), q-every(v2, girl(v2), admired(v2, v1)))",
         "s:q-every(v1, girl(v1), admired(v1, s-one(sax)))"]),
    "shared_object_coordination.txt": (
        "every girl admired , but most boys detested , one saxophonist",
        ["s:and(q-every(v1, girl(v1), admired(v1, s-one(sax))),"
         " q-most(v2, boy(v2), detested(v2, s-one(sax))))",
         "s:q-one(v1, sax(v1), and(admired(s-every(girl), v1),"
         " detested(s-most(boy), v1)))"]),
    "complex_np_two_scopings.txt": (
        "two representatives of three companies",
        ["s:q-three(v1, comp(v1), q-two(v2, and(rep(v2), of(v2, v1)), v3))"
         r"/(s:v3\np:num(v2, pl))",
         "s:q-two(v1, and(rep(v1), of(v1, s-three(comp))), v2)"
         r"/(s:v2\np:num(v1, pl))"]),
    "ditransitive_middle_scope.txt": (
        "every dealer shows most customers three cars",
        ["s:q-most(v1, cstmr(v1), q-every(v2, dlr(v2),"
         " show(v2, v1, s-three(car))))"]),
    "transitive_shape_fragment.txt": (
        "investigate two dialects of",
        [r"(s:investigate(v1, s-two(v2^and(dialect(v2), of(v2, v3))))"
         r"\np:num(v1, v4))/np:num(v3, v5)"]),
}


def render_golden(name, lexicon=None):
    sentence, targets = GOLDENS[name]
    lex = lexicon or default_lexicon()
    chart = parse(tokenize(sentence), lex)
    by_key = {cat_key(it.cat): it for it in chart.full_span()}
    blocks = []
    for key in targets:
        tree = next(derivations(chart, by_key[key]))
        blocks.append(pretty(chart, tree))
    return "\n\n".join(blocks) + "\n"


def all_pairs_combinations(left, right):
    """(label, result) for every row of ROWS that combines two categories,
    built without the chart's rule walk: unify, apply the unifier, then
    rewrite into canonical form.  Quantifiers over non-variables are kept."""
    for label, ask, offer, build in ROWS:
        want, got = ask(left), offer(right)
        if want is None or got is None:
            continue
        s = unify_cat(want, got)
        if s is not None:
            yield label, map_sems(build(left, right), lambda t: apply(s, t))


def all_pairs_parse(tokens, lex):
    """Oracle: closure that builds every lexical item, tries every row on
    every pair of adjacent items and rewrites every result into canonical
    form itself.  It prunes nothing, so it keeps the constituents whose
    quantifiers bind non-variables."""
    n = len(tokens)
    chart = Chart(tuple(tokens), {}, {})

    def add(span, cat, back):
        cat = map_sems(cat, eta_reduce_sets)
        cell = chart.cells.setdefault(span, {})
        key = cat_key(cat)
        item = cell.get(key)
        if item is None:
            item = Item(len(chart.items) + 1, span, cat, [back])
            chart.items[item.id] = item
            cell[key] = item
        elif back not in item.backs:
            item.backs.append(back)

    for i in range(n):
        try:
            matches = lex.lookup(tokens, i)
        except UnknownTokenError:  # inside a multi-word lexeme
            continue
        for entry, k in matches:
            add((i, i + k), lex.fresh(entry.cat), ("lex", entry.tag))
    for width in range(2, n + 1):
        for i in range(0, n - width + 1):
            j = i + width
            for k in range(i + 1, j):
                for lit in chart.cells.get((i, k), {}).values():
                    for rit in chart.cells.get((k, j), {}).values():
                        for label, out in all_pairs_combinations(lit.cat, rit.cat):
                            add((i, j), out, (label, lit.id, rit.id))
    return chart


def well_formed_part(chart):
    """The chart's items whose every semantics readings._well_formed
    accepts, keeping only the backpointers between such items."""
    items = {i: it for i, it in chart.items.items()
             if all(_well_formed(at.sem) for at in atomics(it.cat))}
    part = Chart(chart.tokens, {}, {})
    for i, it in items.items():
        backs = [back for back in it.backs
                 if back[0] == "lex" or (back[1] in items and back[2] in items)]
        part.items[i] = Item(i, it.span, it.cat, backs)
        part.cells.setdefault(it.span, {})[cat_key(it.cat)] = part.items[i]
    return part


def live_items(chart):
    """The items some full-span item reaches through backpointers, in id
    order."""
    seen = set()
    todo = [it.id for it in chart.full_span()]
    while todo:
        i = todo.pop()
        if i not in seen:
            seen.add(i)
            todo += [i for back in chart.items[i].backs if back[0] != "lex"
                     for i in back[1:]]
    return [chart.items[i] for i in sorted(seen)]


def item_sequence(items):
    """(span, cat_key, backpointers) of each item, in the given order, with
    every backpointer's ids replaced by positions in that order."""
    pos = {it.id: p for p, it in enumerate(items, start=1)}
    return [(it.span, cat_key(it.cat),
             [back if back[0] == "lex" else (back[0], pos[back[1]], pos[back[2]])
              for back in it.backs])
            for it in items]


# --- the entry-by-entry lexicon load, the oracle for load_lexicon ---------

def oracle_raised(lexeme, num, qsym, ssym, tset):
    """One @raise family expanded entry by entry: the per-type work done
    for every family, and a key for every entry, checked against a seen
    set of the family's keys."""
    tag = " ".join(lexeme)
    out, seen = [], set()

    def push(cat):
        entry = LexEntry(lexeme, cat, tag)
        if entry.key not in seen:
            seen.add(entry.key)
            out.append(entry)

    def np_of(sem):
        return Atomic("np", Compound("num", (sem, Atom(num))))

    def fresh(stem, taken):
        n = 2
        name = stem
        while name in taken:
            name = f"{stem}{n}"
            n += 1
        return Var(name)

    push(Slash("/", np_of(Compound(ssym, (Var("N"),))), Atomic("n", Var("N"))))
    for t in tset:
        taken = {v.id for v in cat_vars(t)}
        nv = fresh("N", taken)
        np_narrow = np_of(Compound(ssym, (nv,)))
        push(Slash("/", Slash("/", t, Slash("\\", t, np_narrow)), Atomic("n", nv)))
        push(Slash("/", Slash("\\", t, Slash("/", t, np_narrow)), Atomic("n", nv)))
        if result_atomic(t).sort != "s":
            continue
        vv = fresh("V", taken)
        t_out = replace_result_sem(t, Compound(qsym, (vv, nv, result_atomic(t).sem)))
        np_wide = np_of(vv)
        n_prop = Atomic("n", Lam(vv, nv))
        push(Slash("/", Slash("/", t_out, Slash("\\", t, np_wide)), n_prop))
        push(Slash("/", Slash("\\", t_out, Slash("/", t, np_wide)), n_prop))
    return out


def oracle_load(text):
    """(entries, warning messages) of a well-formed lexicon text, loaded
    with a (lexeme, key) set over every entry: a later variant of an entry
    of the same lexeme is dropped with a warning naming its line."""
    entries, warned, keys = [], [], set()
    tset, raises = [], []

    def add(lineno, entry):
        if (entry.lexeme, entry.key) in keys:
            warned.append(f"line {lineno}: duplicate lexicon entry for"
                          f" {entry.tag!r} dropped: {entry.key}")
        else:
            keys.add((entry.lexeme, entry.key))
            entries.append(entry)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line.startswith("@tset"):
            tset = [parse_cat(part) for part in _split_top(line[len("@tset"):])]
        elif line.startswith("@raise"):
            fields = line.split()
            raises.append((lineno, tuple(fields[1:-3]), *fields[-3:]))
        elif line:
            lhs, rhs = line.split("::", 1)
            lexeme = tuple(lhs.split())
            add(lineno, LexEntry(lexeme, parse_cat(rhs.strip()), " ".join(lexeme)))
    for lineno, lexeme, num, qsym, ssym in raises:
        for entry in oracle_raised(lexeme, num, qsym, ssym, tset):
            add(lineno, entry)
    return entries, warned


# Noun phrases for seeded PP chains and clause embeddings: (words, number,
# determiner symbol, noun predicate).  No two share a (determiner, noun)
# label, so the quantifiers of a sentence built from them stay distinct.
NOUN_PHRASES = [
    ("one saxophonist", "sg", "one", "sax"), ("every boy", "sg", "every", "boy"),
    ("one girl", "sg", "one", "girl"), ("a woman", "sg", "a", "woman"),
    ("three saxophonists", "pl", "three", "sax"), ("three boys", "pl", "three", "boy"),
    ("every dealer", "sg", "every", "dlr"), ("all russians", "pl", "all", "russian"),
    ("a saxophonist", "sg", "a", "sax"), ("two women", "pl", "two", "woman"),
    ("most cars", "pl", "most", "car"), ("five samples", "pl", "five", "samp"),
]
TRANSITIVES = ["admired", "visited", "saw", "detested"]
EMBEDDERS = {"sg": [("thinks", "think")], "pl": [("think", "think"), ("doubt", "doubt")]}


def _leaf(np, var, restriction=None):
    _, _, det, pred = np
    return f"q?({det}, {var}, {restriction or f'{pred}({var})'})"


def pp_chain(depth, seed):
    """(sentence, skeleton text) of DET N (P DET N)^depth VERB DET N, each
    PP on the noun before it: depth + 2 quantifiers, each of the chain's
    noun phrases hosting the next."""
    rng = random.Random(seed)
    nps = rng.sample(NOUN_PHRASES, depth + 2)
    preps = [rng.choice(["of", "in"]) for _ in range(depth)]
    verb = rng.choice(TRANSITIVES)
    chain, obj = nps[:-1], nps[-1]
    inner = _leaf(chain[-1], f"X{depth}")
    for i in range(depth - 1, -1, -1):
        inner = _leaf(chain[i], f"X{i}",
                      f"and({chain[i][3]}(X{i}), {preps[i]}(X{i}, {inner}))")
    words = [chain[0][0]] + [f"{p} {np[0]}" for p, np in zip(preps, chain[1:])]
    sentence = " ".join(words + [verb, obj[0]])
    return sentence, f"{verb}({inner}, {_leaf(obj, 'Y')})"


def embedding(depth, seed):
    """(sentence, skeleton text) of (DET N EMBED that)^depth DET N VERB DET
    N: depth + 2 quantifiers, none inside another's restriction."""
    rng = random.Random(seed)
    nps = rng.sample(NOUN_PHRASES, depth + 2)
    subj, obj = nps[depth], nps[depth + 1]
    verb = rng.choice(TRANSITIVES)
    sentence = f"{subj[0]} {verb} {obj[0]}"
    sk = f"{verb}({_leaf(subj, 'S')}, {_leaf(obj, 'O')})"
    for i in range(depth - 1, -1, -1):
        words, pred = rng.choice(EMBEDDERS[nps[i][1]])
        sentence = f"{nps[i][0]} {words} that {sentence}"
        sk = f"{pred}(up({sk}), {_leaf(nps[i], f'E{i}')})"
    return sentence, sk


def unrecorded(t):
    """A structural copy of t that carries no record, so every walk over it
    goes node by node."""
    if isinstance(t, (Var, Atom)):
        return t
    return with_children(t, [unrecorded(k) for k in children(t)])
