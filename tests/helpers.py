"""Golden-file rendering shared by the generator and the tests, and the
all-pairs closure the tests use as an oracle for the chart.

Each golden names a sentence plus the full-span categories whose first
derivation it freezes; the rendered text is the pretty printer's output
for those derivations, blank-line separated, in the listed order.
"""

from ccgscope.categories import cat_key, map_sems
from ccgscope.chart import RULES, Chart, Item, derivations, parse, pretty
from ccgscope.cli import tokenize
from ccgscope.lexicon import UnknownTokenError, default_lexicon
from ccgscope.terms import eta_reduce_sets

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


def all_pairs_parse(tokens, lex):
    """Oracle: closure that builds every lexical item, tries every rule on
    every pair of adjacent items and rewrites every result into canonical
    form itself."""
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
                        for label, rule in RULES:
                            out = rule(lit.cat, rit.cat)
                            if out is not None:
                                add((i, j), out, (label, lit.id, rit.id))
    return chart


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
