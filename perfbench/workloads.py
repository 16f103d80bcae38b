"""Seeded inputs and output checks for the three benchmark workloads.

A workload is a list of ops that together form one *pass*.  The seed picks
the vocabulary and the order; the number of ops of each shape in a pass is
fixed, so every seed puts the same mix of work into a run and medians stay
comparable across seeds.  The engine receives only the generated sentences,
skeletons and command lines.

Every op has a label naming its shape, the input as text, ``call()``, which
runs the engine once and is what the benchmark times, ``check(result)``,
which returns None when the output is correct and otherwise a one-line
reason, and ``counters(result)``, output counts that must repeat exactly
from pass to pass.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from importlib import resources
from typing import Callable, List, Optional

from ccgscope import baseline, cli, lexicon, readings, terms
from ccgscope.categories import Atomic, Slash, format_cat, canonical_cat, parse_cat


@dataclass
class Op:
    label: str          # shape of the op, e.g. "pp_chain.d3"; no seed-dependent words
    text: str           # the input as a user would type it
    call: Callable[[], object]
    check: Callable[[object], Optional[str]]
    counters: Callable[[object], dict] = lambda result: {}


# --- vocabulary read from the bundled lexicon ------------------------------

# The lexicon carries no noun number and no tense, so these two tables are
# the only hand-written vocabulary.  Every word in them must have a lexicon
# entry; the predicate names, determiner symbols and numbers, verb argument
# orders and agreement come from the lexicon's categories.
SG_NOUNS = ("girl", "boy", "saxophonist", "dealer", "car", "man", "woman",
            "student", "language")
PL_NOUNS = ("girls", "boys", "saxophonists", "frenchmen", "russians",
            "representatives", "companies", "samples", "dealers", "customers",
            "cars", "mechanics", "men", "women", "students", "dialects",
            "languages")
# Finite forms that agree with a subject of either number.  The base forms
# "investigate" and "collect" have the same category but are left out so no
# generated sentence pairs them with a singular subject.
PAST_VERBS = ("visited", "saw", "admired", "detested", "touched",
              "danced with", "talked to")
# Multi-word determiners are left out.  Their first or last word is itself
# a determiner ("a few", "more than two", "at most three"), so they add a
# second entry family to the chart, and a seed that picked one would get a
# larger chart than a seed that did not.  ("one of the" also pairs a
# singular determiner with a plural noun.)


@dataclass(frozen=True)
class Det:
    words: str
    number: str       # "sg" | "pl"
    sym: str          # quantifier label: "every", "most", "two", ...


@dataclass(frozen=True)
class Noun:
    words: str
    number: str
    pred: str


@dataclass(frozen=True)
class Verb:
    words: str
    sem: terms.Term   # semantics of the s result, e.g. saw(X, Y)
    subj: terms.Var
    args: tuple       # object slot variables, in the order they are consumed
    subj_number: Optional[str]   # None: agrees with either number


class Vocabulary:
    """Determiners, nouns, verbs and connectives read from a lexicon."""

    def __init__(self, lex: lexicon.Lexicon):
        by_word = {}
        for entry in lex.entries:
            by_word.setdefault(" ".join(entry.lexeme), []).append(entry.cat)
        self.dets: List[Det] = []
        self.nouns: List[Noun] = []
        self.preps: List[tuple] = []      # (word, predicate)
        self.embedders: List[Verb] = []
        self.transitive: List[Verb] = []
        self.ditransitive: List[Verb] = []
        for word, cats in by_word.items():
            for cat in cats:
                self._classify(word, cat)
        nouns = {n.words for n in self.nouns}
        missing = [w for w in SG_NOUNS + PL_NOUNS if w not in nouns]
        missing += [w for w in PAST_VERBS if w not in {v.words for v in self.transitive}]
        if missing:
            raise ValueError(f"words missing from the lexicon: {missing}")
        self.transitive = [v for v in self.transitive if v.words in PAST_VERBS]
        self.cluster_coordinators = [w for w in ("but", "and") if w in by_word]
        self.rnr_coordinators = [w for w in (", but", ", and") if w in by_word]

    def _classify(self, word: str, cat) -> None:
        # determiner: np:num(s-sym(N), sg|pl)/n:N
        if (isinstance(cat, Slash) and cat.dir == "/" and isinstance(cat.result, Atomic)
                and cat.result.sort == "np" and isinstance(cat.arg, Atomic)
                and cat.arg.sort == "n"):
            sem = cat.result.sem
            if (isinstance(sem, terms.Compound) and sem.functor == "num"
                    and terms.is_set_form(sem.args[0])
                    and " " not in word):
                sym = sem.args[0].functor[len(terms.SET_PREFIX):]
                self.dets.append(Det(word, sem.args[1].name, sym))
            return
        # plain noun: n:X^pred(X)
        if isinstance(cat, Atomic) and cat.sort == "n" and isinstance(cat.sem, terms.Lam):
            number = "sg" if word in SG_NOUNS else "pl" if word in PL_NOUNS else None
            if number:
                self.nouns.append(Noun(word, number, cat.sem.body.functor))
            return
        # noun-modifying preposition: (n:Y^and(N, p(Y, Z))\n:Y^N)/np
        if (isinstance(cat, Slash) and isinstance(cat.result, Slash)
                and isinstance(cat.result.result, Atomic) and cat.result.result.sort == "n"):
            body = cat.result.result.sem.body
            self.preps.append((word, body.args[1].functor))
            return
        verb = _verb(word, cat)
        if verb is None:
            return
        if len(verb.args) == 1 and isinstance(cat.arg, Atomic) and cat.arg.sort == "sbar":
            self.embedders.append(verb)
        elif len(verb.args) == 1 and isinstance(cat.arg, Atomic) and cat.arg.sort == "np":
            self.transitive.append(verb)
        elif len(verb.args) == 2:
            self.ditransitive.append(verb)

    def nouns_of(self, number: str) -> List[Noun]:
        return [n for n in self.nouns if n.number == number]


def _verb(word: str, cat) -> Optional[Verb]:
    """((s:sem\\np:num(X, N))/A1)/A2 with atomic slots A1, A2."""
    args = []
    while isinstance(cat, Slash) and cat.dir == "/" and isinstance(cat.arg, Atomic):
        args.append(cat.arg.sem)
        cat = cat.result
    if not (args and isinstance(cat, Slash) and cat.dir == "\\"
            and isinstance(cat.result, Atomic) and cat.result.sort == "s"
            and isinstance(cat.arg, Atomic) and cat.arg.sort == "np"):
        return None
    subj_num = cat.arg.sem
    if not (isinstance(subj_num, terms.Compound) and subj_num.functor == "num"):
        return None
    subj, number = subj_num.args
    slots = tuple(a.args[0] if isinstance(a, terms.Compound) and a.functor == "num" else a
                  for a in args)
    return Verb(word, cat.result.sem, subj, slots,
                number.name if isinstance(number, terms.Atom) else None)


# --- the generator ---------------------------------------------------------

class Generator:
    """Seeded sentences whose quantifiers all have distinct labels.

    A label is the pair (determiner symbol, noun predicate); with a
    duplicated label two quantifiers merge in `scope_profile` and the
    baseline check reports false mismatches.
    """

    def __init__(self, vocab: Vocabulary, seed: int):
        self.v = vocab
        self.rng = random.Random(seed)
        self.new_sentence()

    def new_sentence(self):
        self.used = set()
        self.vars = 0

    def np(self, number: Optional[str] = None):
        """(words, det, noun, var) for a fresh determiner-noun phrase."""
        while True:
            det = self.rng.choice([d for d in self.v.dets
                                   if number is None or d.number == number])
            noun = self.rng.choice(self.v.nouns_of(det.number))
            if (det.sym, noun.pred) not in self.used:
                self.used.add((det.sym, noun.pred))
                self.vars += 1
                return f"{det.words} {noun.words}", det, noun, terms.Var(f"Q{self.vars}")

    def leaf(self, det: Det, var: terms.Var, restriction) -> terms.Term:
        return terms.Compound(baseline.MARK, (terms.Atom(det.sym), var, restriction))

    def transitive_clause(self):
        """Words and skeleton of DET N VERB DET N."""
        s_words, s_det, s_noun, s_var = self.np()
        verb = self.rng.choice(self.v.transitive)
        o_words, o_det, o_noun, o_var = self.np()
        sk = terms.apply({verb.subj: self.leaf(s_det, s_var, _pred(s_noun, s_var)),
                          verb.args[0]: self.leaf(o_det, o_var, _pred(o_noun, o_var))},
                         verb.sem)
        return f"{s_words} {verb.words} {o_words}", sk

    def pp_chain(self, depth: int):
        """DET N (P DET N)^depth VERB DET N, each PP on the noun before it."""
        self.new_sentence()
        head = self.np()
        chain = [head]
        words = [head[0]]
        preps = []
        for _ in range(depth):
            prep = self.rng.choice(self.v.preps)
            preps.append(prep[1])
            chain.append(self.np())
            words += [prep[0], chain[-1][0]]
        _, det, noun, var = chain[-1]
        restr = _pred(noun, var)
        inner = self.leaf(det, var, restr)
        for (_, det, noun, var), pred in zip(reversed(chain[:-1]), reversed(preps)):
            restr = terms.Compound("and", (_pred(noun, var), terms.Compound(pred, (var, inner))))
            inner = self.leaf(det, var, restr)
        verb = self.rng.choice(self.v.transitive)
        o_words, o_det, o_noun, o_var = self.np()
        sk = terms.apply({verb.subj: inner,
                          verb.args[0]: self.leaf(o_det, o_var, _pred(o_noun, o_var))},
                         verb.sem)
        return " ".join(words + [verb.words, o_words]), sk, depth + 2

    def embedding(self, depth: int):
        """(DET N EMBED that)^depth DET N VERB DET N."""
        self.new_sentence()
        frames = []
        for _ in range(depth):
            words, det, noun, var = self.np()
            verb = self.rng.choice([e for e in self.v.embedders
                                    if e.subj_number in (None, det.number)])
            frames.append((words, det, noun, var, verb))
        inner_words, sk = self.transitive_clause()
        for words, det, noun, var, verb in reversed(frames):
            sk = terms.apply({verb.subj: self.leaf(det, var, _pred(noun, var)),
                              verb.args[0]: sk}, verb.sem)
            inner_words = f"{words} {verb.words} that {inner_words}"
        return inner_words, sk, 2 + depth

    def cluster(self, k: int) -> str:
        """DET N VERB3 DET N DET N (CONJ DET N DET N)^k."""
        self.new_sentence()
        verb = self.rng.choice(self.v.ditransitive)
        words = [self.np(verb.subj_number)[0], verb.words,
                 self.np()[0], self.np()[0]]
        for _ in range(k):
            words += [self.rng.choice(self.v.cluster_coordinators),
                      self.np()[0], self.np()[0]]
        return " ".join(words)

    def right_node_raising(self) -> str:
        """DET N VERB , CONJ DET N VERB , DET N (two conjuncts share the object)."""
        self.new_sentence()
        left = f"{self.np()[0]} {self.rng.choice(self.v.transitive).words}"
        right = f"{self.np()[0]} {self.rng.choice(self.v.transitive).words}"
        conj = self.rng.choice(self.v.rnr_coordinators)
        return f"{left} {conj} {right} , {self.np()[0]}"


def _pred(noun: Noun, var: terms.Var) -> terms.Term:
    return terms.Compound(noun.pred, (var,))


# --- checks ------------------------------------------------------------------

def reading_problem(term) -> Optional[str]:
    """A reading must be closed and a fixpoint of normalize."""
    if terms.free_vars(term):
        return f"reading not closed: {terms.format_term(term)}"
    if readings.normalize(term) != term:
        return f"reading not normalize-idempotent: {terms.format_term(term)}"
    return None


def _first(problems) -> Optional[str]:
    return next((p for p in problems if p), None)


# --- workload: nested_scope ----------------------------------------------

# Why: the readings layer (normalize and its filters) and the baseline layer
# take their largest share of op time here, about a quarter at PP depth 4:
# 124 full-span forms collapse to 46 readings, and 720 quantifier orders
# leave 64 unbound-variable-constraint survivors.  Chart closure still does
# most of the work, but with many distinct full-span forms, the opposite of
# coord_cluster.
NESTED_SHAPES = [("pp_chain", d) for d in (1, 2, 3, 4)] + \
                [("embedding", d) for d in (1, 2, 3)]


def nested_scope(lex, seed: int) -> List[Op]:
    gen = Generator(Vocabulary(lex), seed)
    ops = []
    for family, depth in NESTED_SHAPES:
        make = gen.pp_chain if family == "pp_chain" else gen.embedding
        sentence, sk, nquant = make(depth)
        skel_text = terms.format_term(sk)
        tokens = cli.tokenize(sentence)
        skeleton = baseline.parse_skeleton(skel_text)
        ops.append(Op(f"{family}.d{depth}", f"{sentence}\t{skel_text}",
                      _compare_call(tokens, skeleton, lex),
                      _compare_check(nquant), _compare_counters))
    return _shuffled(ops, seed)


def _compare_call(tokens, skeleton, lex):
    # Resolved at call time, so a traced run sees its wrapper.
    return lambda: baseline.compare(tokens, skeleton, lex)


def _compare_check(nquant: int):
    def check(report) -> Optional[str]:
        if len(report.enumerated) != math.factorial(nquant):
            return f"{len(report.enumerated)} orders, expected {nquant}!"
        if not report.survivors:
            return "no order survives the unbound-variable constraint"
        if not report.ccg:
            return "no derived reading"
        survivors = [readings.scope_profile(f) for f in report.survivors]
        for r in report.ccg:
            p = readings.scope_profile(r.term)
            if not any(p <= s for s in survivors):
                return f"reading no survivor licenses: {terms.format_term(r.term)}"
        return _first(reading_problem(r.term) for r in report.ccg)
    return check


def _compare_counters(report) -> dict:
    return {"readings": len(report.ccg),
            "derivations": sum(r.multiplicity for r in report.ccg),
            "orders": len(report.enumerated),
            "survivors": len(report.survivors),
            "gap_orders": len(report.gap)}


# --- workload: coord_cluster -----------------------------------------------

# Why: chart closure is about 98% of op time.  At k = 3 the chart holds 1389
# items, 250 of them full-span, under 2% of rule attempts succeed, and 10
# readings remain with 2 scope profiles, so unification, cell keying and
# associativity packing show here and normalization barely does.  The chart
# grows with the Catalan numbers in k; k = 4 is left out to keep an op under
# a second.  The mix puts the median on the short sentences and the 90th
# percentile on k = 3.
COORD_SHAPES = [("cluster", 1)] * 3 + [("rnr", 2)] * 3 + \
               [("cluster", 2)] * 2 + [("cluster", 3)] * 2


def coord_cluster(lex, seed: int) -> List[Op]:
    gen = Generator(Vocabulary(lex), seed)
    ops = []
    for family, k in COORD_SHAPES:
        sentence = gen.cluster(k) if family == "cluster" else gen.right_node_raising()
        tokens = cli.tokenize(sentence)
        ops.append(Op(f"{family}.k{k}", sentence, _readings_call(tokens, lex),
                      _coord_check, _readings_counters))
    return _shuffled(ops, seed)


def _readings_call(tokens, lex):
    return lambda: readings.readings(tokens, lex)


def _coord_check(rs) -> Optional[str]:
    # The paper's account gives these sentences two scopings: the shared
    # subject (or shared object) over the coordination or under it.  The raw
    # reading count is not checked: bracketing of "and" inflates it.
    profiles = {readings.scope_profile(r.term) for r in rs}
    if len(profiles) != 2:
        return f"{len(profiles)} distinct scope profiles, expected 2"
    return _first(reading_problem(r.term) for r in rs)


def _readings_counters(rs) -> dict:
    return {"readings": len(rs), "derivations": sum(r.multiplicity for r in rs)}


# --- workload: corpus_cli --------------------------------------------------

# Why: this is how a user drives the tool.  Each op is one in-process
# ccgscope.cli.main call, lexicon load included: end to end is the CLI's
# time per command.  Loading the 431-entry lexicon takes most of each command, so a
# lexicon or cli change shows here and a chart change barely does.

def _data_text(name: str) -> str:
    return resources.files("ccgscope").joinpath(f"data/{name}").read_text(encoding="utf-8")


def _data_lines(name: str) -> List[List[str]]:
    rows = []
    for raw in _data_text(name).splitlines():
        line = raw.split("#", 1)[0].rstrip()
        if line:
            rows.append(line.split("\t", 1))
    return rows


def run_cli(argv):
    """One in-process CLI call with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def corpus_cli(lex, seed: int) -> List[Op]:
    rng = random.Random(seed)
    vocab = Vocabulary(lex)
    corpus = _data_lines("corpus.txt")
    skeletons = _data_lines("corpus.skel")
    expected = {" ".join(cli.tokenize(s)): int(n) for n, s in corpus if n != "UNGRAMMATICAL"}
    ops = []

    def op(label, argv, check):
        ops.append(Op(label, " ".join(argv), lambda: run_cli(argv), check, _cli_counters))

    for n, sentence in corpus:
        if n == "UNGRAMMATICAL":
            fragment, shape = (part.strip() for part in sentence.split("⊣"))
            op("parse.ungrammatical", ["--json", "parse", fragment], _ungrammatical_check(shape))
        else:
            op("readings", ["--json", "readings", sentence], _readings_json_check(int(n)))
    for sentence, skel in skeletons:
        key = " ".join(cli.tokenize(sentence))
        nquant = len(baseline.skeleton_leaves(baseline.parse_skeleton(skel.strip())))
        op("compare", ["--json", "compare", sentence], _compare_json_check(expected[key], nquant))
    derive_sentence = rng.choice([s for n, s in corpus if n != "UNGRAMMATICAL"])
    op("derive", ["derive", derive_sentence, "--max-derivations", "4"],
       _derive_check(derive_sentence))
    # The corpus command, which parses every corpus sentence, is a sixth of a
    # pass.  The 90th percentile then falls inside its samples instead of on
    # the edge between the slowest one-sentence commands, where it jumps.
    for _ in range(4):
        op("corpus", ["corpus"], _corpus_check(len(corpus)))

    # Error ops, built from the lexicon's words so a seed changes them.
    gen = Generator(vocab, seed)
    words = gen.transitive_clause()[0].split()
    words.insert(rng.randrange(len(words) + 1), f"zqx{rng.randrange(1000)}")
    op("error.unknown_token", ["readings", " ".join(words)], _exit_check(2, "unknown token"))
    long_words = []
    while len(long_words) <= 32:
        gen.new_sentence()
        long_words += gen.transitive_clause()[0].split()
    op("error.too_long", ["readings", " ".join(long_words)], _exit_check(2, "token limit"))
    gen.new_sentence()
    no_parse = f"{gen.np()[0]} {gen.np()[0]}"
    op("error.no_parse", ["readings", no_parse], _exit_check(1, "no parse"))
    return _shuffled(ops, seed)


def _cli_counters(result) -> dict:
    return {"exit_" + str(result[0]): 1}


def _exit_check(code: int, message: str):
    def check(result) -> Optional[str]:
        got, out, err = result
        if got != code:
            return f"exit {got}, expected {code}"
        if message not in err or err.count("\n") != 1:
            return f"expected a one-line error naming {message!r}, got {err!r}"
        return None
    return check


def _json_output(result, code: int = 0):
    got, out, err = result
    if got != code:
        return None, f"exit {got}, expected {code}: {err.strip()}"
    try:
        return json.loads(out), None
    except ValueError as exc:
        return None, f"output is not JSON: {exc}"


def _readings_json_check(count: int):
    def check(result) -> Optional[str]:
        doc, problem = _json_output(result)
        if problem:
            return problem
        rs = doc["readings"]
        if len(rs) != count:
            return f"{len(rs)} readings, corpus expects {count}"
        if doc["derivation_count"] != sum(r["multiplicity"] for r in rs):
            return "derivation_count is not the sum of multiplicities"
        for r in rs:
            term = terms.parse_term(r["lf"])
            if terms.format_term(term) != r["lf"]:
                return f"lf does not re-parse to itself: {r['lf']}"
            if sorted([a, b] for a, b in readings.scope_profile(term)) != r["outscopes"]:
                return f"outscopes disagree with the lf: {r['lf']}"
            problem = reading_problem(term)
            if problem:
                return problem
        return None
    return check


def _shape(cat) -> str:
    return format_cat(canonical_cat(cat), with_sems=False)


def _ungrammatical_check(shape_text: str):
    shape = _shape(parse_cat(shape_text))

    def check(result) -> Optional[str]:
        doc, problem = _json_output(result, result[0])
        if problem:
            return problem
        items = doc["items"]
        if result[0] != (0 if items else 1):
            return f"exit {result[0]} with {len(items)} full-span items"
        if any(_shape(parse_cat(it["cat"])) == shape for it in items):
            return f"fragment forms the excluded shape {shape_text}"
        return None
    return check


def _compare_json_check(count: int, nquant: int):
    def check(result) -> Optional[str]:
        doc, problem = _json_output(result)
        if problem:
            return problem
        if doc["ccg"] != count:
            return f"{doc['ccg']} derived readings, corpus expects {count}"
        if doc["enumerated"] != math.factorial(nquant):
            return f"{doc['enumerated']} orders, expected {nquant}!"
        if not 1 <= doc["uvc"] <= doc["enumerated"] or len(doc["gap"]) > doc["uvc"]:
            return f"inconsistent counts {doc['enumerated']}/{doc['uvc']}/{len(doc['gap'])}"
        if any(len(set(order)) != len(order) or len(order) != nquant for order in doc["gap"]):
            return f"gap order is not a permutation of the quantifiers: {doc['gap']}"
        return None
    return check


def _derive_check(sentence: str):
    head = " ".join(cli.tokenize(sentence))

    def check(result) -> Optional[str]:
        code, out, err = result
        if code != 0:
            return f"exit {code}: {err.strip()}"
        trees = [b for b in out.split("\n\n") if b.strip() and not b.startswith("...")]
        if not 1 <= len(trees) <= 4:
            return f"{len(trees)} derivations shown, expected 1 to 4"
        if not all(t.startswith(head + "  ::  s:") for t in trees):
            return "a derivation does not span the sentence with an s category"
        return None
    return check


def _corpus_check(rows: int):
    def check(result) -> Optional[str]:
        code, out, err = result
        last = out.strip().splitlines()[-1] if out.strip() else ""
        if code != 0 or last != f"{rows}/{rows} corpus entries pass":
            return f"exit {code}, summary {last!r}"
        return None
    return check


# --- registry ----------------------------------------------------------------

def _shuffled(ops: List[Op], seed: int) -> List[Op]:
    random.Random(seed ^ 0x5EED).shuffle(ops)
    return ops


WORKLOADS = {
    "corpus_cli": corpus_cli,
    "nested_scope": nested_scope,
    "coord_cluster": coord_cluster,
}

# The library workloads load the lexicon once in set-up; corpus_cli loads
# it inside every op, through the CLI.
LOADS_LEXICON_PER_OP = {"corpus_cli"}
