"""Golden-file rendering shared by the generator and the tests, the
all-pairs closure the tests use as an oracle for the chart, the shape
backbone worked out on shape values, the oracle for the shape pass, the
dense split loop and the key-every-result closure, the oracles for the
shape pass's split walk and for chart keying, replay and the backpointer
check, which recombine each derivation through the chart's rules, the
entry-by-entry lexicon load they use as an oracle for load_lexicon,
seeded PP chains and clause embeddings with their quantifier skeletons,
the oracle for the baseline's one skeleton walk (leaves, erasure and
host map, each from its own walk), the factorial count of a skeleton's
argument-slot orders, seeded argument clusters, record-free copies of terms, a type-tagged oracle for term
equality, the variables of a category, and the node-by-node walks of
the readings layer and of free_vars, the oracles for the walks that
replaced them, the whole-form filter and site walk, the oracles for the
walks the scope summary guides,
the character-by-character term and category reader, the oracle for the
token reader, and the renamer with its special cases, the oracle for
Renamer.rename, and the isinstance kernels, the oracles for the rule
kernels (apply_reduced, unify and occurs).

Each golden names a sentence plus the full-span categories whose first
derivation it freezes; the rendered text is the pretty printer's output
for those derivations, blank-line separated, in the listed order.
"""

import itertools
import math
import random
from operator import is_not

from ccgscope.categories import (
    SORTS,
    Atomic,
    CatError,
    Slash,
    atomics,
    cat_key,
    cat_shape,
    cat_text,
    map_sems,
    parse_cat,
    replace_result_sem,
    result_atomic,
    standardize_apart,
    unify_cat,
)
from ccgscope import chart as chart_module
from ccgscope.baseline import MARK, skeleton_leaves
from ccgscope.chart import ROWS, Chart, Item, derivations, parse, pretty
from ccgscope.cli import tokenize
from ccgscope.lexicon import LexEntry, _split_top, default_lexicon
from ccgscope.readings import (
    Occurrence,
    StructuralError,
    _binder_index,
    _dependent_site,
    _head_noun,
    _low_site,
    _ordered,
    _visible,
    _walk,
    _Wrap,
)
from ccgscope.terms import (
    QUANT_PREFIX,
    SET_PREFIX,
    Atom,
    Compound,
    Lam,
    QuantifierSlotError,
    Renamer,
    TermError,
    Up,
    Var,
    _is_var_name,
    apply,
    canonicalize,
    children,
    eta_reduce_sets,
    format_term,
    is_and,
    is_quant,
    is_set_form,
    subterms,
    free_vars,
    unbound_quantifier,
    with_children,
)

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
    by_text = {cat_text(it.cat): it for it in chart.full_span()}
    blocks = []
    for text in targets:
        tree = next(derivations(chart, by_text[text]))
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
    keyed = {}  # span -> {cat_key: item}

    def add(span, cat, back):
        cat = map_sems(cat, eta_reduce_sets)
        by_key = keyed.setdefault(span, {})
        key = cat_key(cat)
        item = by_key.get(key)
        if item is None:
            item = Item(len(chart.items) + 1, span, cat, cat_shape(cat), [back])
            chart.items[item.id] = item
            chart.cells.setdefault(span, []).append(item)
            by_key[key] = item
        elif back not in item.backs:
            item.backs.append(back)

    counter = itertools.count(1)
    for i in range(n):
        for entry, k in lex.lookup(tokens, i):
            add((i, i + k), standardize_apart(entry.cat, counter), ("lex", entry.tag))
    for width in range(2, n + 1):
        for i in range(0, n - width + 1):
            j = i + width
            for k in range(i + 1, j):
                for lit in chart.cells.get((i, k), ()):
                    for rit in chart.cells.get((k, j), ()):
                        for label, out in all_pairs_combinations(lit.cat, rit.cat):
                            add((i, j), out, (label, lit.id, rit.id))
    return chart


# --- replay, the check of each derivation against the rules -------------

class ChartError(Exception):
    """A derivation failed to replay; signals an engine bug."""


def _replay_step(label, left, right, item, key, counter):
    """Recombine two child categories by label; ChartError unless the result
    has key, item's stored cat_key."""
    lcat = standardize_apart(left, counter)
    rcat = standardize_apart(right, counter)
    out = chart_module._combine(label, lcat, rcat)
    if out is None:
        raise ChartError(f"rule {label} failed to replay at {item.span}")
    if cat_key(out) != key:
        raise ChartError(f"replayed category differs at {item.span}:"
                         f" {cat_text(out)} vs {cat_text(item.cat)}")
    return out


def replay(tree):
    """Recompute a derivation bottom-up, checking each stored category.

    Children are standardized apart before combining, as Lexicon.chart_copy
    renames lexical entries for parse.  Raises ChartError on any mismatch.
    """
    counter = itertools.count(1)

    def go(t):
        if t[0] == "lex":
            return t[2].cat
        label, lt, rt, item = t
        return _replay_step(label, go(lt), go(rt), item, cat_key(item.cat),
                            counter)

    return go(tree)


def check_backpointers(chart):
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
        key = None
        for back in item.backs:
            if back[0] != "lex":
                if key is None:
                    key = cat_key(item.cat)
                label, li, ri = back
                _replay_step(label, chart.items[li].cat, chart.items[ri].cat,
                             item, key, counter)


def well_formed(t):
    """Does every quantifier in t bind a variable?"""
    return unbound_quantifier(t) is None


def well_formed_part(chart):
    """The chart's items whose every semantics is well_formed, keeping
    only the backpointers between such items."""
    items = {i: it for i, it in chart.items.items()
             if all(well_formed(at.sem) for at in atomics(it.cat))}
    part = Chart(chart.tokens, {}, {})
    for i, it in items.items():
        backs = [back for back in it.backs
                 if back[0] == "lex" or (back[1] in items and back[2] in items)]
        part.items[i] = Item(i, it.span, it.cat, it.shape, backs)
        part.cells.setdefault(it.span, []).append(part.items[i])
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


def oracle_live_shapes(tokens, lex):
    """Oracle for the shape pass: the marked (span, shape) pairs, worked
    out on shape values without the shape table.  An inside CKY pass
    applies every row of ROWS to every pair of adjacent shapes, starting
    from the lexical cat_shapes; an outside pass then marks what lies on
    a shape derivation of a full-span shape, or everything when no shape
    spans the input."""
    n = len(tokens)
    inside = {}  # span -> {shape: [(split, left shape, right shape)]}
    for i in range(n):
        for entry, k in lex.lookup(tokens, i):
            inside.setdefault((i, i + k), {}).setdefault(cat_shape(entry.chart_cat), [])
    for width in range(2, n + 1):
        for i in range(0, n - width + 1):
            j = i + width
            for k in range(i + 1, j):
                for left in inside.get((i, k), ()):
                    for right in inside.get((k, j), ()):
                        for _, ask, offer, build in ROWS:
                            want = ask(left)
                            if want is not None and want == offer(right):
                                inside.setdefault((i, j), {}) \
                                    .setdefault(build(left, right), []).append((k, left, right))
    if inside.get((0, n)):
        live = {((0, n), shape) for shape in inside[(0, n)]}
    else:
        live = {(span, shape) for span, cell in inside.items() for shape in cell}
    for width in range(n, 1, -1):
        for i in range(0, n - width + 1):
            span = (i, i + width)
            for shape, backs in inside.get(span, {}).items():
                if (span, shape) in live:
                    for k, left, right in backs:
                        live.add(((i, k), left))
                        live.add(((k, span[1]), right))
    return live


def oracle_live_edges(n, lexical):
    """Oracle for chart._live_edges: the same passes over every split
    (i, k, j) of every span, k from i + 1 to j - 1, skipping the splits
    with an empty cell, and the same return value."""
    table = chart_module._TABLE
    sets = {span: frozenset(shapes) for span, shapes in lexical.items()}
    splits = {}
    for width in range(2, n + 1):
        for i in range(0, n - width + 1):
            j = i + width
            made = set()
            for k in range(i + 1, j):
                lefts, rights = sets.get((i, k)), sets.get((k, j))
                if lefts is None or rights is None:
                    continue
                found = table.edges(lefts, rights)
                if found:
                    splits.setdefault((i, j), []).append((k, found))
                for by_right in found.values():
                    for results in by_right.values():
                        made.update(results.values())
            if made:
                sets[(i, j)] = sets.get((i, j), frozenset()) | made

    if sets.get((0, n)):
        live = {(0, n): set(sets[(0, n)])}
    else:
        live = {span: set(shapes) for span, shapes in sets.items()}
    for width in range(n, 1, -1):
        for i in range(0, n - width + 1):
            j = i + width
            marked = live.get((i, j))
            if not marked:
                continue
            by_k = dict(splits.get((i, j), ()))
            for k in range(i + 1, j):
                for left, by_right in by_k.get(k, {}).items():
                    for right, results in by_right.items():
                        if not marked.isdisjoint(results.values()):
                            live.setdefault((i, k), set()).add(left)
                            live.setdefault((k, j), set()).add(right)
    return live, splits


def keyed_parse(tokens, lexicon):
    """Oracle for chart.parse's keying and split walk: the same closure
    over oracle_live_edges, whose add looks a lexical item or rule result
    up by its category and keys every one it misses, filing each item
    under its cat_key, and which tries every k from i + 1 to j - 1 of a
    marked span."""
    table = chart_module._TABLE
    tokens = tuple(tokens)
    n = len(tokens)
    chart = Chart(tokens, {}, {})
    known, keyed, shape_ids = {}, {}, [None]

    def add(span, cat, shape, back):
        seen = known.setdefault(span, {})
        item = seen.get(cat)
        if item is None:
            cell = keyed.setdefault(span, {})
            key = cat_key(cat)
            item = cell.get(key)
            if item is None:
                item = cell[key] = Item(len(chart.items) + 1, span, cat,
                                        table.shapes[shape], [])
                chart.cells.setdefault(span, []).append(item)
                chart.items[item.id] = item
                shape_ids.append(shape)
            seen[cat] = item
        item.backs.append(back)

    lexical = [((i, i + k), entry, table.id(entry.shape))
               for i in range(n) for entry, k in lexicon.lookup(tokens, i)]
    shapes = {}
    for span, _, shape in lexical:
        shapes.setdefault(span, []).append(shape)
    live, splits = oracle_live_edges(n, shapes)
    uses = {}
    for span, entry, shape in lexical:
        if shape in live.get(span, ()):
            nth = uses.get(id(entry), 0)
            uses[id(entry)] = nth + 1
            add(span, lexicon.chart_copy(entry, nth), shape, ("lex", entry.tag))
    for width in range(2, n + 1):
        for i in range(0, n - width + 1):
            j = i + width
            marked = live.get((i, j))
            if not marked:
                continue
            by_k = dict(splits.get((i, j), ()))
            for k in range(i + 1, j):
                found = by_k.get(k)
                if not found:
                    continue
                for lit in chart.cells.get((i, k), ()):
                    by_right = found.get(shape_ids[lit.id])
                    if not by_right:
                        continue
                    for rit in chart.cells.get((k, j), ()):
                        results = by_right.get(shape_ids[rit.id])
                        if results:
                            for label, rule in chart_module.RULES:
                                shape = results.get(label)
                                if shape in marked:
                                    out = rule(lit.cat, rit.cat)
                                    if out is not None:
                                        add((i, j), out, shape, (label, lit.id, rit.id))
    return chart


# --- the entry-by-entry lexicon load, the oracle for load_lexicon ---------

def oracle_raised(lexeme, num, qsym, ssym, tset):
    """One @raise family expanded entry by entry: the per-type work done
    for every family, and a chart form key for every entry, checked
    against a seen set of the family's keys."""
    tag = " ".join(lexeme)
    out, seen = [], set()

    def push(cat):
        entry = LexEntry(lexeme, cat, tag)
        if entry.chart_key not in seen:
            seen.add(entry.chart_key)
            out.append(entry)

    def np_of(sem):
        return Atomic("np", Compound("num", (sem, Atom(num))))

    nv, vv = Var("N'"), Var("V'")
    push(Slash("/", np_of(Compound(ssym, (nv,))), Atomic("n", nv)))
    for t in tset:
        np_narrow = np_of(Compound(ssym, (nv,)))
        push(Slash("/", Slash("/", t, Slash("\\", t, np_narrow)), Atomic("n", nv)))
        push(Slash("/", Slash("\\", t, Slash("/", t, np_narrow)), Atomic("n", nv)))
        if result_atomic(t).sort != "s":
            continue
        t_out = replace_result_sem(t, Compound(qsym, (vv, nv, result_atomic(t).sem)))
        np_wide = np_of(vv)
        n_prop = Atomic("n", Lam(vv, nv))
        push(Slash("/", Slash("/", t_out, Slash("\\", t, np_wide)), n_prop))
        push(Slash("/", Slash("\\", t_out, Slash("/", t, np_wide)), n_prop))
    return out


def oracle_load(text):
    """(entries, warning messages) of a well-formed lexicon text, loaded
    with a (lexeme, chart form key) set over every entry: an entry whose
    chart form is a variant of that of an earlier entry of the same
    lexeme is dropped with a warning naming its line."""
    entries, warned, keys = [], [], set()
    tset, raises = [], []

    def add(lineno, entry):
        if (entry.lexeme, entry.chart_key) in keys:
            warned.append(f"line {lineno}: duplicate lexicon entry for"
                          f" {entry.tag!r} dropped: {cat_text(entry.cat)}")
        else:
            keys.add((entry.lexeme, entry.chart_key))
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


# Lexicons that declare one entry twice in chart form variants, each as
# (text, the later variant, a sentence, the warning the load gives): an
# and/2 nested right and then left, a set form written as a lambda and
# then eta-reduced, and two @tset types under an np result that differ
# only in and/2 nesting.  Without the later variant, a lexicon is text
# with that substring removed.
CHART_FORM_VARIANTS = {
    "and/2 nesting": (
        "x :: s:and(a, and(b, c))\nx :: s:and(and(a, b), c)\n",
        "x :: s:and(and(a, b), c)\n", "x",
        "line 2: duplicate lexicon entry for 'x' dropped: s:and(and(a, b), c)"),
    "set form": (
        "x :: np:s-a(X^p(X))\nx :: np:s-a(p)\ngo :: s:go(Y)\\np:Y\n",
        "x :: np:s-a(p)\n", "x go",
        "line 2: duplicate lexicon entry for 'x' dropped: np:s-a(p)"),
    "type set": (
        "@tset np:and(a, and(b, c)), np:and(and(a, b), c)\ngirl :: n:X^girl(X)\n"
        "v :: np:and(a, and(b, c))\\np:X\nw :: s:w(Y)/np:Y\n"
        "@raise every sg q-every s-every\n",
        ", np:and(and(a, b), c)", "w every girl v", None),
}


# User lexicons with multi-word lexemes, each with the sentences it is
# parsed on: a span that holds a lexical item holds rule items too.  In
# "x x e" the rule results x + (x e) and (x x) + e merge into the lexical
# item np:x(x(e(D))), whose id is smaller than that of (x e); in "x y"
# two lexical items of one signature share a span with a rule result.
MULTI_WORD_LEXICONS = [
    ("x :: np:x(A)/np:A\ne :: np:e(B)\nx x e :: np:x(x(e(D)))\ngo :: s:go(Y)/np:Y\n",
     ["x x e", "go x x e"]),
    ("x :: np:f(a, A)/np:A\ny :: np:Y\nx y :: np:f(a, B)\nx y :: np:f(B, a)\n", ["x y"]),
]


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


# --- the skeleton walk's oracle ---------------------------------------------
# A skeleton read as baseline did before one walk (baseline._parts) gave all
# four parts: the leaves by subterms, one erasure per term, and a host map
# from a second walk of each leaf's restriction.

def _is_mark(t):
    return isinstance(t, Compound) and t.functor == MARK


def oracle_leaves(sk):
    """The marked leaves of sk in preorder, as (det, var, restriction)."""
    return [(t.args[0].name, t.args[1], t.args[2]) for t in subterms(sk) if _is_mark(t)]


def oracle_erase(t):
    """t with every marked leaf replaced by its variable."""
    if _is_mark(t):
        return t.args[1]
    return with_children(t, [oracle_erase(k) for k in children(t)])


def oracle_hosts(sk):
    """Each embedded leaf's variable mapped to its innermost host's variable."""
    host = {}
    for _, var, restriction in oracle_leaves(sk):
        # Preorder: an inner host overwrites an outer one.
        for t in subterms(restriction):
            if _is_mark(t):
                host[t.args[1]] = var
    return host


def factorial_count(sk):
    """Product over functions of (number of quantified argument slots)!

    An argument slot counts as quantified when the argument contains a
    marked leaf or is itself the variable of one.
    """
    leaf_vars = {leaf.var for leaf in skeleton_leaves(sk)}

    def has_mark(t):
        return any(_is_mark(n) for n in subterms(t))

    total = 1
    for t in subterms(sk):
        if isinstance(t, Compound) and not _is_mark(t):
            total *= math.factorial(
                sum(1 for a in t.args if has_mark(a) or a in leaf_vars))
    return total


def cluster(k, seed):
    """An argument cluster of k + 1 conjuncts: DET N shows DET N DET N,
    then k times a coordinator and two more noun phrases, no noun phrase
    used twice.  The subject is singular, as shows asks."""
    rng = random.Random(seed)
    subject = rng.choice([np for np in NOUN_PHRASES if np[1] == "sg"])
    nps = rng.sample([np for np in NOUN_PHRASES if np != subject], 2 * k + 2)
    words = [subject[0], "shows", nps[0][0], nps[1][0]]
    for i in range(1, k + 1):
        words += [rng.choice(["but", "and"]), nps[2 * i][0], nps[2 * i + 1][0]]
    return " ".join(words)


def unrecorded(t):
    """A structural copy of t that carries no record, so every walk over it
    goes node by node."""
    if isinstance(t, (Var, Atom)):
        return t
    return with_children(t, [unrecorded(k) for k in children(t)])


def tagged(t, memo=None):
    """The oracle for term equality: t as nested plain tuples, each node
    tagged with its type's name, built from the fields alone.  Two terms
    should be equal exactly when their tagged forms are.  memo, a dict,
    keeps the form of each node object tagged (by id, with the node, so
    the id stays its own): a caller that tags many terms sharing
    subterms tags each shared node once."""
    if memo is not None:
        held = memo.get(id(t))
        if held is not None:
            return held[1]
    kind = type(t)
    if kind is Var:
        form = ("Var", t.id)
    elif kind is Atom:
        form = ("Atom", t.name)
    elif kind is Compound:
        form = ("Compound", t.functor, tuple(tagged(a, memo) for a in t.args))
    elif kind is Lam:
        form = ("Lam", tagged(t.param, memo), tagged(t.body, memo))
    elif kind is Up:
        form = ("Up", tagged(t.body, memo))
    else:
        raise TypeError(f"not a term: {t!r}")
    if memo is not None:
        memo[id(t)] = (t, form)
    return form


def tagged_cat(cat, memo=None):
    """The oracle for category equality, from the term oracle."""
    if isinstance(cat, Slash):
        return ("Slash", cat.dir, tagged_cat(cat.result, memo), tagged_cat(cat.arg, memo))
    return ("Atomic", cat.sort, tagged(cat.sem, memo))


def cat_vars(cat):
    """Every variable occurring in the category's terms, first-occurrence
    order (lambda parameters included, as the Renamer treats them)."""
    return tuple(dict.fromkeys(
        n for at in atomics(cat) for n in subterms(at.sem) if isinstance(n, Var)))


# --- the node-by-node walks of the readings layer, the oracles for it -----
#
# These are the readings layer's walks as they were before each full-span
# form was walked once: a walk that builds every node's child list, a
# normalizer that checks quantifier slots in a walk of its own, takes every
# set-form group's free variables, rebuilds every node and takes the free
# variables of its input and result, and a recursive free_vars.

_ORACLE_STEPS = {Lam: ("param", "lam"), Up: ("up",)}


def oracle_steps(node):
    """The path step to each of node's children, in children() order."""
    if isinstance(node, Compound):
        return range(len(node.args))
    return _ORACLE_STEPS.get(type(node), ())


def oracle_walk(t):
    """All (path, node, chain) triples in preorder."""
    stack = [((), t, ())]
    while stack:
        path, node, chain = stack.pop()
        yield path, node, chain
        stack.extend(reversed([(path + (step,), kid, chain + ((node, step),))
                               for step, kid in zip(oracle_steps(node), children(node))]))


def oracle_free_vars(t):
    """Free variables in first-occurrence order, by recursion."""
    seen = []

    def walk(t, bound):
        if isinstance(t, Var):
            if t not in bound and t not in seen:
                seen.append(t)
        elif isinstance(t, Lam):
            walk(t.body, bound | {t.param})
        elif is_quant(t) and isinstance(t.args[0], Var):
            inner = bound | {t.args[0]}
            walk(t.args[1], inner)
            walk(t.args[2], inner)
        else:
            for k in children(t):
                walk(k, bound)

    walk(t, frozenset())
    return tuple(seen)


def oracle_float_position(chain):
    """Is the occurrence at the end of chain beside an up(.) argument that
    holds scope material, every node of it visited to tell?"""
    if not chain:
        return False
    node, step = chain[-1]
    if not isinstance(node, Compound):
        return False
    return any(isinstance(a, Up) and any(is_quant(n) or is_set_form(n)
                                         for n in subterms(a.body))
               for i, a in enumerate(node.args) if i != step)


def oracle_single_site(chain, path):
    if any(isinstance(n, Up) for n, _ in chain):
        return _low_site(chain, path)
    if oracle_float_position(chain):
        return None
    return _low_site(chain, path)


def oracle_assign_sites(t):
    occ_list = [(path, node, chain) for path, node, chain in oracle_walk(t)
                if is_set_form(node)]
    rank = {path: i for i, (path, _, _) in enumerate(occ_list)}
    chains = {path: chain for path, _, chain in occ_list}
    groups = {}
    for path, node, _ in occ_list:
        groups.setdefault(node, []).append(path)

    fresh = itertools.count(1)
    wraps = []
    replace = {}

    def promote(node, paths, site):
        var = Var(f"_q{next(fresh)}")
        for p in paths:
            replace[p] = var
        first = paths[0]
        wraps.append(_Wrap(site, node.functor[len(SET_PREFIX):], var,
                           (first + (0,), node.args[0], chains[first] + ((node, 0),)),
                           tuple(paths), min(rank[p] for p in paths)))

    dead = []

    def alive(p):
        return not any(len(p) > len(d) and p[:len(d)] == d for d in dead)

    ordered_groups = sorted(
        groups.items(),
        key=lambda kv: (min(len(p) for p in kv[1]), min(rank[p] for p in kv[1])))

    for node, paths in ordered_groups:
        paths = [p for p in paths if alive(p)]
        if not paths:
            continue
        fv = set(oracle_free_vars(node.args[0]))
        bound_free = {p: fv & _visible(chains[p]) for p in paths}

        if any(bound_free.values()):
            for p in paths:
                if bound_free[p]:
                    site = _dependent_site(chains[p], p, bound_free[p])
                else:
                    site = oracle_single_site(chains[p], p)
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
            chain = chains[paths[0]]
            dominated = any(is_quant(n) for n, _ in chain[:len(prefix)])
            if not is_and(chain[len(prefix)][0]):
                pass
            elif dominated and all(oracle_float_position(chains[p]) for p in paths):
                pass
            elif not any(is_quant(n) or isinstance(n, Up)
                         for p in paths for n, _ in chains[p][len(prefix) + 1:]):
                promote(node, paths, prefix)
                dead.extend(paths[1:])
                continue

        for p in paths:
            site = oracle_single_site(chains[p], p)
            if site is not None:
                promote(node, [p], site)

    return wraps, replace


def oracle_normalize(t):
    if not well_formed(t):
        raise StructuralError(
            "quantifier with a non-variable in its variable position")

    wraps, replace = oracle_assign_sites(t)
    by_site = {}
    for w in wraps:
        by_site.setdefault(w.site, []).append(w)

    def restriction(w):
        body = rebuild(*w.restriction)
        if isinstance(body, Lam):
            return apply({body.param: w.var}, body.body)
        if isinstance(body, Atom):
            return Compound(body.name, (w.var,))
        raise StructuralError(f"unpromotable restriction {format_term(body)}")

    def rebuild(path, node, chain):
        if path in replace:
            return replace[path]
        out = with_children(node, [rebuild(path + (step,), kid, chain + ((node, step),))
                                   for step, kid in zip(oracle_steps(node), children(node))])
        here = by_site.get(path)
        if here:
            for w in reversed(_ordered(here, node, path, chain)):
                out = Compound(QUANT_PREFIX + w.det, (w.var, restriction(w), out))
        return out

    result = rebuild((), t, ())
    if oracle_free_vars(t) == () and oracle_free_vars(result):
        raise StructuralError(
            f"promotion left variables unbound in {format_term(result)}")
    return canonicalize(result)


def oracle_intensional_violation(t):
    for _, node, chain in oracle_walk(t):
        if not isinstance(node, Up):
            continue
        free = set(oracle_free_vars(node.body))
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


def oracle_occurrences(t):
    found = []
    for path, node, _ in oracle_walk(t):
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
    counts = {}
    for det, _, _, _ in found:
        counts[det] = counts.get(det, 0) + 1
    out = []
    for det, noun, path, kind in found:
        label = det if counts[det] == 1 else f"{det}-{noun}"
        out.append(Occurrence(label, det, noun, path, kind))
    return out


# --- the whole-form filter and site walk, the oracles for the summary -----
#
# readings._intensional_violation and readings._assign_sites as they were
# before a scope summary told them where their material lies: each walks
# every node of a form, and takes free variables by walking again.  Each
# takes the summary as the engine's do, and ignores it, so a test can
# patch them in.

def whole_form_intensional_violation(t, summary=None):
    for _, node, chain in _walk(t):
        if type(node) is not Up:
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


def whole_form_assign_sites(t, summary=None):
    occ_list = []
    for entry in _walk(t):
        node = entry[1]
        if type(node) is Compound:
            if is_set_form(node):
                occ_list.append(entry)
            elif is_quant(node) and type(node.args[0]) is not Var:
                raise StructuralError(
                    "quantifier with a non-variable in its variable position")
    rank = {path: i for i, (path, _, _) in enumerate(occ_list)}
    chains = {path: chain for path, _, chain in occ_list}
    groups = {}
    for path, node, _ in occ_list:
        groups.setdefault(node, []).append(path)

    fresh = itertools.count(1)
    wraps = []
    replace = {}

    def promote(node, paths, site):
        var = Var(f"_q{next(fresh)}")
        for p in paths:
            replace[p] = var
        wraps.append(_Wrap(site, node.functor[len(SET_PREFIX):], var,
                           (paths[0] + (0,), node.args[0]),
                           tuple(paths), min(rank[p] for p in paths)))

    dead = []

    def alive(p):
        return not any(len(p) > len(d) and p[:len(d)] == d for d in dead)

    ordered_groups = sorted(
        groups.items(),
        key=lambda kv: (min(len(p) for p in kv[1]), min(rank[p] for p in kv[1])))

    for node, paths in ordered_groups:
        paths = [p for p in paths if alive(p)]
        if not paths:
            continue
        fv = free_vars(node.args[0])
        bound_free = {p: _visible(chains[p]).intersection(fv) for p in paths}

        if any(bound_free.values()):
            for p in paths:
                if bound_free[p]:
                    site = _dependent_site(chains[p], p, bound_free[p])
                else:
                    site = oracle_single_site(chains[p], p)
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
            chain = chains[paths[0]]
            dominated = any(is_quant(n) for n, _ in chain[:len(prefix)])
            if not is_and(chain[len(prefix)][0]):
                pass
            elif dominated and all(oracle_float_position(chains[p]) for p in paths):
                pass
            elif not any(is_quant(n) or isinstance(n, Up)
                         for p in paths for n, _ in chains[p][len(prefix) + 1:]):
                promote(node, paths, prefix)
                dead.extend(paths[1:])
                continue

        for p in paths:
            site = oracle_single_site(chains[p], p)
            if site is not None:
                promote(node, [p], site)

    return wraps, replace, chains


# --- the character-by-character reader, the oracle for the token reader ---
#
# parse_term and parse_cat as they were before they read tokens: a cursor
# that skips blanks and scans names a character at a time, and a second
# walk that gives each atomic written without a term a fresh variable.

_NAME_CHARS = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_-?")


class _Cursor:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, msg: str) -> TermError:
        return TermError(f"{msg} at position {self.pos}: {self.text!r}")

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def eat(self, ch: str) -> None:
        self.skip_ws()
        if self.peek() != ch:
            raise self.error(f"expected {ch!r}")
        self.pos += 1

    def name(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] in _NAME_CHARS:
            self.pos += 1
        if self.pos == start:
            raise self.error("expected a name")
        return self.text[start:self.pos]


def oracle_parse_term_at(cur: _Cursor):
    t = _oracle_primary(cur)
    cur.skip_ws()
    if cur.peek() == "^":
        if not isinstance(t, Var):
            raise cur.error("lambda parameter must be a variable")
        cur.eat("^")
        return Lam(t, oracle_parse_term_at(cur))
    return t


def _oracle_primary(cur: _Cursor):
    cur.skip_ws()
    if cur.peek() == "(":
        cur.eat("(")
        t = oracle_parse_term_at(cur)
        cur.eat(")")
        return t
    name = cur.name()
    cur.skip_ws()
    if cur.peek() == "(":
        cur.eat("(")
        args = [oracle_parse_term_at(cur)]
        cur.skip_ws()
        while cur.peek() == ",":
            cur.eat(",")
            args.append(oracle_parse_term_at(cur))
            cur.skip_ws()
        cur.eat(")")
        if name == "up":
            if len(args) != 1:
                raise cur.error("up takes exactly one argument")
            return Up(args[0])
        return Compound(name, tuple(args))
    if _is_var_name(name):
        return Var(name)
    return Atom(name)


def oracle_parse_term(text: str):
    cur = _Cursor(text)
    t = oracle_parse_term_at(cur)
    cur.skip_ws()
    if cur.pos != len(cur.text):
        raise cur.error("trailing input")
    return t


_BLANK = Var("")  # placeholder for atomics written without a term


def oracle_parse_cat(text: str):
    cur = _Cursor(text)
    try:
        cat = _oracle_cat(cur)
    except TermError as e:
        raise CatError(str(e)) from None
    cur.skip_ws()
    if cur.pos != len(cur.text):
        raise CatError(f"trailing input at position {cur.pos}: {text!r}")
    return _oracle_fill_blanks(cat)


def _oracle_cat(cur: _Cursor):
    left = _oracle_part(cur)
    while True:
        cur.skip_ws()
        ch = cur.peek()
        if ch in ("/", "\\"):
            cur.pos += 1
            right = _oracle_part(cur)
            left = Slash(ch, left, right)
        else:
            return left


def _oracle_part(cur: _Cursor):
    cur.skip_ws()
    if cur.peek() == "(":
        cur.pos += 1
        inner = _oracle_cat(cur)
        cur.skip_ws()
        if cur.peek() != ")":
            raise CatError(f"expected ')' at position {cur.pos}: {cur.text!r}")
        cur.pos += 1
        cur.skip_ws()
        if cur.peek() == ":":
            raise CatError(
                f"':' may only annotate an atomic category, at position {cur.pos}: {cur.text!r}"
            )
        return inner
    start = cur.pos
    sort = cur.name()
    if sort not in SORTS:
        raise CatError(f"unknown sort {sort!r} at position {start}: {cur.text!r}")
    cur.skip_ws()
    if cur.peek() == ":":
        cur.pos += 1
        sem = oracle_parse_term_at(cur)
        return Atomic(sort, sem)
    return Atomic(sort, _BLANK)


def _oracle_fill_blanks(cat):
    fresh = (Var(f"V'{n}") for n in itertools.count(1))
    return map_sems(cat, lambda sem: next(fresh) if sem is _BLANK else sem)


# --- the renamer with its special cases, the oracle for Renamer.rename ----
#
# Renamer.rename as it was before it renamed every term one way: a bare
# variable is renamed at once, and a compound's leading variable and atom
# arguments are renamed before it goes on the stack (a compound of leaves
# is rebuilt at once).

_REBUILD = object()


class OracleRenamer(Renamer):
    def rename(self, t):
        vars, fresh = self.vars, self.fresh
        if type(t) is Var:
            new = vars.get(t.id)
            if new is None:
                new = vars[t.id] = Var(fresh(t.id))
            return new
        out: list = []
        stack = [t]
        pop, push, emit = stack.pop, stack.append, out.append
        while stack:
            t = pop()
            kind = type(t)
            if kind is Var:
                new = vars.get(t.id)
                if new is None:
                    new = vars[t.id] = Var(fresh(t.id))
                emit(new)
            elif kind is Atom:
                emit(t)
            elif t is _REBUILD:
                t = pop()
                kind = type(t)
                if kind is Compound:
                    n = len(t.args)
                    args = tuple(out[len(out) - n:])
                    del out[len(out) - n:]
                    emit(Compound(t.functor, args))
                elif kind is Lam:
                    body = out.pop()
                    out[-1] = Lam(out[-1], body)
                else:
                    out[-1] = Up(out[-1])
            elif kind is Compound:
                # Leading variable and atom arguments are renamed at once;
                # a compound of leaves is rebuilt at once.
                args, i = t.args, 0
                for a in args:
                    if type(a) is Var:
                        new = vars.get(a.id)
                        if new is None:
                            new = vars[a.id] = Var(fresh(a.id))
                        emit(new)
                    elif type(a) is Atom:
                        emit(a)
                    else:
                        break
                    i += 1
                n = len(args)
                if i == n:
                    args = tuple(out[len(out) - n:])
                    del out[len(out) - n:]
                    emit(Compound(t.functor, args))
                    continue
                push(t)
                push(_REBUILD)
                for j in range(n - 1, i - 1, -1):
                    push(args[j])
            elif kind is Lam:
                push(t)
                push(_REBUILD)
                push(t.body)
                push(t.param)
            elif kind is Up:
                push(t)
                push(_REBUILD)
                push(t.body)
            else:
                raise TermError(f"not a term: {t!r}")
        return out[0]


# --- the isinstance kernels, the oracles for the rule kernels -------------
#
# terms.apply_reduced, unify and occurs as they were before they dispatched
# on exact types: apply_reduced takes each node's children and rebuilds it
# with with_children when one of them changed, and writes its record in a
# pass of its own over the children it returned (_oracle_recorded); unify
# and occurs follow bindings through walk, which only the oracles use, and
# test node types with isinstance.

def walk(s, t):
    """t with variable bindings in s followed until an unbound variable or a
    non-variable; subterms are left as they are."""
    while isinstance(t, Var) and t in s:
        t = s[t]
    return t


def oracle_occurs(v, t, s):
    stack = [t]
    while stack:
        t = walk(s, stack.pop())
        if isinstance(t, Var):
            if t == v:
                return True
        elif t.varset is None:
            stack.extend(children(t))
        elif v in t.varset:
            return v not in s
        else:
            stack.extend(s.keys() & t.varset)
    return False


def _oracle_bind(s, v, t):
    if oracle_occurs(v, t, s):
        return None
    out = dict(s)
    out[v] = t
    return out


def oracle_unify(a, b, s=None):
    if s is None:
        s = {}
    a = walk(s, a)
    b = walk(s, b)
    if isinstance(a, Var) and isinstance(b, Var):
        if a == b:
            return s
        lo, hi = (a, b) if a.id < b.id else (b, a)
        return _oracle_bind(s, lo, hi)
    if isinstance(a, Var):
        return _oracle_bind(s, a, b)
    if isinstance(b, Var):
        return _oracle_bind(s, b, a)
    if isinstance(a, Atom) and isinstance(b, Atom):
        return s if a.name == b.name else None
    if isinstance(a, Compound) and isinstance(b, Compound):
        if a.functor != b.functor or len(a.args) != len(b.args):
            return None
        for x, y in zip(a.args, b.args):
            s = oracle_unify(x, y, s)
            if s is None:
                return None
        return s
    if isinstance(a, Lam) and isinstance(b, Lam):
        s = oracle_unify(a.param, b.param, s)
        if s is None:
            return None
        return oracle_unify(a.body, b.body, s)
    if isinstance(a, Up) and isinstance(b, Up):
        return oracle_unify(a.body, b.body, s)
    return None


def oracle_apply_reduced(s, t):
    while isinstance(t, Var):
        if t not in s:
            return t
        t = s[t]
    if isinstance(t, Atom) or (t.varset is not None and s.keys().isdisjoint(t.varset)):
        return t
    kids = children(t)
    new = []
    for k in kids:
        new.append(oracle_apply_reduced(s, k))
    if any(map(is_not, new, kids)):
        if isinstance(kids[0], Var) and not isinstance(new[0], Var) and is_quant(t):
            raise QuantifierSlotError(f"{t.functor} would bind a non-variable")
        t = with_children(t, new)
    if not isinstance(t, Compound):
        return _oracle_recorded(t)
    if is_and(t) and is_and(t.args[1]):
        right, tail = t.args[1], []
        while is_and(right):
            tail.append(right.args[1])
            right = right.args[0]
        t = _oracle_recorded(Compound("and", (t.args[0], right)))
        for conjunct in reversed(tail):
            t = _oracle_recorded(Compound("and", (t, conjunct)))
        return t
    if t.functor.startswith(SET_PREFIX) and len(t.args) == 1:
        lam = t.args[0]
        if (isinstance(lam, Lam) and isinstance(lam.body, Compound)
                and lam.body.args == (lam.param,) and not _is_var_name(lam.body.functor)):
            return _oracle_recorded(Compound(t.functor, (Atom(lam.body.functor),)))
    return _oracle_recorded(t)


def _oracle_recorded(t):
    varset = set()
    for k in (t.args if type(t) is Compound else children(t)):
        if type(k) is Var:
            varset.add(k)
        else:
            varset |= k.varset
    t.varset = frozenset(varset)
    return t
