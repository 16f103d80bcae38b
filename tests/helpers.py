"""Golden-file rendering shared by the generator and the tests, the
all-pairs closure the tests use as an oracle for the chart, the shape
backbone worked out on shape values, the oracle for the shape pass, the
entry-by-entry lexicon load they use as an oracle for load_lexicon, and
seeded PP chains and clause embeddings with their quantifier skeletons,
record-free copies of terms, a type-tagged oracle for term equality, and
the node-by-node walks of the readings layer and of free_vars, the
oracles for the walks that replaced them, the character-by-character
term and category reader, the oracle for the token reader, and the
renamer with its special cases, the oracle for Renamer.rename.

Each golden names a sentence plus the full-span categories whose first
derivation it freezes; the rendered text is the pretty printer's output
for those derivations, blank-line separated, in the listed order.
"""

import itertools
import random

from ccgscope.categories import (
    SORTS,
    Atomic,
    CatError,
    Slash,
    atomics,
    cat_key,
    cat_shape,
    cat_text,
    cat_vars,
    map_sems,
    parse_cat,
    replace_result_sem,
    result_atomic,
    unify_cat,
)
from ccgscope.chart import ROWS, Chart, Item, derivations, parse, pretty
from ccgscope.cli import tokenize
from ccgscope.lexicon import LexEntry, _split_top, default_lexicon
from ccgscope.readings import (
    Occurrence,
    StructuralError,
    _binder_index,
    _dependent_site,
    _float_position,
    _head_noun,
    _ordered,
    _single_site,
    _visible,
    _Wrap,
)
from ccgscope.terms import (
    QUANT_PREFIX,
    SET_PREFIX,
    Atom,
    Compound,
    Lam,
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

    def add(span, cat, back):
        cat = map_sems(cat, eta_reduce_sets)
        cell = chart.cells.setdefault(span, {})
        key = cat_key(cat)
        item = cell.get(key)
        if item is None:
            item = Item(len(chart.items) + 1, span, cat, cat_shape(cat), [back])
            chart.items[item.id] = item
            cell[key] = item
        elif back not in item.backs:
            item.backs.append(back)

    for i in range(n):
        for entry, k in lex.lookup(tokens, i):
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
                          f" {entry.tag!r} dropped: {cat_text(entry.cat)}")
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


def tagged(t):
    """The oracle for term equality: t as nested plain tuples, each node
    tagged with its type's name, built from the fields alone.  Two terms
    should be equal exactly when their tagged forms are."""
    kind = type(t)
    if kind is Var:
        return ("Var", t.id)
    if kind is Atom:
        return ("Atom", t.name)
    if kind is Compound:
        return ("Compound", t.functor, tuple(tagged(a) for a in t.args))
    if kind is Lam:
        return ("Lam", tagged(t.param), tagged(t.body))
    if kind is Up:
        return ("Up", tagged(t.body))
    raise TypeError(f"not a term: {t!r}")


def tagged_cat(cat):
    """The oracle for category equality, from the term oracle."""
    if isinstance(cat, Slash):
        return ("Slash", cat.dir, tagged_cat(cat.result), tagged_cat(cat.arg))
    return ("Atomic", cat.sort, tagged(cat.sem))


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
            chain = chains[paths[0]]
            dominated = any(is_quant(n) for n, _ in chain[:len(prefix)])
            if not is_and(chain[len(prefix)][0]):
                pass
            elif dominated and all(_float_position(chains[p]) for p in paths):
                pass
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
    used = {v.id for v in cat_vars(cat)}
    fresh = (Var(f"V{n}") for n in itertools.count(1) if f"V{n}" not in used)
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
