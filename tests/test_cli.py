import errno
import json
import os
import random
import subprocess
import sys
from collections import Counter

import pytest

from ccgscope import chart, cli
from ccgscope.categories import cat_key, cat_text, parse_cat
from ccgscope.cli import _data_text, main, read_data, tokenize
from ccgscope.lexicon import default_lexicon, load_lexicon
from ccgscope.readings import readings
from ccgscope.terms import canonicalize, parse_term

from helpers import CHART_FORM_VARIANTS


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# --- tokenization -----------------------------------------------------------

def test_tokenize_lowercases_and_splits_commas():
    text = "Every girl admired, but most boys detested, one of the saxophonists."
    assert tokenize(text) == [
        "every", "girl", "admired", ",", "but", "most", "boys", "detested",
        ",", "one", "of", "the", "saxophonists"]


def test_tokenize_keeps_hyphens_and_digits():
    assert tokenize("a-b c3!") == ["a-b", "c3"]


# --- readings command ---------------------------------------------------------

def test_readings_text_and_json_agree(capsys):
    sentence = "two representatives of three companies saw most samples"
    code, text_out, _ = run(capsys, "readings", sentence)
    assert code == 0
    code, json_out, _ = run(capsys, "--json", "readings", sentence)
    assert code == 0
    doc = json.loads(json_out)
    assert text_out.startswith(f"{len(doc['readings'])} readings of:")
    assert doc["sentence"] == sentence
    assert doc["tokens"] == sentence.split()
    assert doc["derivation_count"] == sum(
        r["multiplicity"] for r in doc["readings"])


def test_readings_json_round_trips(capsys):
    tokens = "every girl admired one saxophonist".split()
    code, out, _ = run(capsys, "--json", "readings", " ".join(tokens))
    assert code == 0
    doc = json.loads(out)
    derived = readings(tokens, default_lexicon())
    assert len(doc["readings"]) == len(derived)
    for row, reading in zip(doc["readings"], derived):
        assert canonicalize(parse_term(row["lf"])) == reading.term
        assert row["multiplicity"] == reading.multiplicity
        for pair in row["outscopes"]:
            assert len(pair) == 2


def test_rules_build_no_quantifier_over_a_non_variable(tmp_path, capsys):
    # "every smiled" would bind every's variable to j; only the derivation
    # that composes "x every" first, and so never builds that constituent,
    # is left.
    path = tmp_path / "user.lex"
    path.write_text("every :: s:q-every(X, girl(X), P)/(s:P\\np:X)\n"
                    "smiled :: s:smiled(j)\\np:j\n"
                    "x :: s:ok/s:Q\n")
    code, out, _ = run(capsys, "--lexicon", str(path), "readings", "x every smiled")
    assert code == 0
    assert out == "1 readings of: x every smiled\n  x1  ok\n"


def test_duplicate_entry_is_one_warning_line(tmp_path, capsys):
    path = tmp_path / "user.lex"
    path.write_text("x :: s:ok\nx :: s:ok\n")
    code, out, err = run(capsys, "--lexicon", str(path), "readings", "x")
    assert code == 0
    assert out == "1 readings of: x\n  x1  ok\n"
    assert err == "warning: line 2: duplicate lexicon entry for 'x' dropped: s:ok\n"


@pytest.mark.parametrize("case, parsed", [
    ("and/2 nesting", "x\n  s:and(and(a, b), c)  [1 derivations]\n"),
    ("set form", "x go\n  s:go(s-a(p))  [1 derivations]\n"),
    ("type set", "w every girl v\n  s:w(and(and(a, b), c))  [2 derivations]\n")],
    ids=["and/2 nesting", "set form", "type set"])
def test_a_chart_form_variant_left_out_changes_no_output(tmp_path, capsys, case, parsed):
    # A chart takes two entries whose chart forms are variants as one, so
    # parse, readings and derive print what they print for the lexicon
    # without the later variant; the load warns when it drops an entry.
    text, variant, sentence, warning = CHART_FORM_VARIANTS[case]
    path, plain = tmp_path / "user.lex", tmp_path / "plain.lex"
    path.write_text(text)
    plain.write_text(text.replace(variant, ""))
    assert run(capsys, "--lexicon", str(plain), "parse", sentence) == (0, parsed, "")
    for command in (["parse"], ["readings"], ["derive"], ["--json", "parse"],
                    ["--json", "readings"]):
        code, out, err = run(capsys, "--lexicon", str(plain), *command, sentence)
        assert (code, err) == (0, "")
        assert run(capsys, "--lexicon", str(path), *command, sentence) \
            == (0, out, f"warning: {warning}\n" if warning else ""), command


def never_matches(lexeme):
    return (f"warning: lexeme {lexeme!r} never matches: sentences are read as"
            " lowercase words, digits, hyphens and commas\n")


def test_a_lexeme_no_sentence_can_match_is_named_once(tmp_path, capsys):
    # tokenize lowercases the sentence, so "John" gives the token "john",
    # which the lexicon does not hold; the warning says why.
    path = tmp_path / "user.lex"
    path.write_text("John :: np:num(john,sg)\nJohn :: s:ok\n"
                    "smiled :: s:smiled(X)\\np:num(X, sg)\n")
    code, out, err = run(capsys, "--lexicon", str(path), "readings", "John smiled")
    assert (code, out) == (2, "")
    assert err == never_matches("John") + "error: unknown token 'john' at position 0\n"


@pytest.mark.parametrize("lexeme", ["John", "x_y", "a,b", "big Dog", "it's"])
def test_each_lexeme_tokenize_does_not_give_back_is_one_warning(tmp_path, capsys, lexeme):
    path = tmp_path / "user.lex"
    path.write_text(f"{lexeme} :: s:ok\nx :: s:ok\n")
    code, out, err = run(capsys, "--lexicon", str(path), "readings", "x")
    assert (code, out, err) == (0, "1 readings of: x\n  x1  ok\n", never_matches(lexeme))


def test_lexemes_tokenize_gives_back_are_not_warned_about(tmp_path, capsys):
    path = tmp_path / "user.lex"
    path.write_text("a-b :: s:f(X)/s:X\nc3 , :: s:g(X)/s:X\none of the :: s:h(X)/s:X\nx :: s:ok\n")
    code, out, err = run(capsys, "--lexicon", str(path), "readings", "a-b c3, one of the x")
    assert (code, out, err) == (0, "1 readings of: a-b c3 , one of the x\n  x1  f(g(h(ok)))\n", "")


def test_every_bundled_lexeme_tokenizes_to_itself():
    # The CLI skips the check for the bundled lexicon, so it must hold.
    lexemes = {e.lexeme for e in default_lexicon().entries}
    assert len(lexemes) == 64
    assert all(tokenize(" ".join(lexeme)) == list(lexeme) for lexeme in lexemes)


def test_ill_formed_entry_is_a_lexicon_error(tmp_path, capsys):
    path = tmp_path / "user.lex"
    path.write_text("x :: s:q-every(j, girl(j), smiled(j))\n")
    code, out, err = run(capsys, "--lexicon", str(path), "readings", "x")
    assert (code, out) == (2, "")
    assert err == "lexicon error: line 1: quantifier q-every binds the non-variable j\n"


RAISE_HEAD = "@tset s\\np, (s\\np)/np\ngirl :: n:X^girl(X)\nsmiled :: s:smiled(X)\\np:num(X, sg)\n"


@pytest.mark.parametrize("symbols, err", [
    ("qevery severy", "q-symbol must be q- and a name, not 'qevery'"),
    ("q-every s-e!v", "s-symbol must be s- and a name, not 's-e!v'")])
def test_raise_symbols_are_prefixed_names(tmp_path, capsys, symbols, err):
    # Unchecked, the first reads "every girl smiled" as
    # smiled(severy(v1^girl(v1))), with no quantifier, and the second
    # prints the lf q-e!v(v1, girl(v1), smiled(v1)), which does not read
    # back.
    path = tmp_path / "user.lex"
    path.write_text(RAISE_HEAD + f"@raise every sg {symbols}\n")
    code, out, errtext = run(capsys, "--lexicon", str(path), "readings", "every girl smiled")
    assert (code, out, errtext) == (2, "", f"lexicon error: line 4: {err}\n")
    path.write_text(RAISE_HEAD + "@raise every sg q-every s-every\n")
    code, out, _ = run(capsys, "--lexicon", str(path), "readings", "every girl smiled")
    assert (code, out) == (0, "1 readings of: every girl smiled\n"
                              "  x1  q-every(v1, girl(v1), smiled(v1))\n")


@pytest.mark.parametrize("text, code, err", [
    ("x :: s:ok\nx :: s:ok\n", 0,
     "warning: line 2: duplicate lexicon entry for 'x' dropped: s:ok\n"),
    ("x :: s:q-every(j, girl(j), smiled(j))\n", 2,
     "lexicon error: line 1: quantifier q-every binds the non-variable j\n"),
    ("John :: s:ok\nx :: s:ok\n", 0, never_matches("John"))])
def test_lexicon_messages_stay_one_line_with_warnings_as_errors(tmp_path, text, code, err):
    # A fresh process, as a user runs it: -W error must not turn the
    # warning into a traceback.
    path = tmp_path / "user.lex"
    path.write_text(text)
    src = os.path.dirname(os.path.dirname(chart.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-X", "dev", "-W", "error", "-m", "ccgscope.cli",
                           "--lexicon", str(path), "readings", "x"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert (done.returncode, done.stderr) == (code, err)


# --- start-up -------------------------------------------------------------------

def test_the_cli_starts_without_dataclasses_or_inspect():
    # Every command starts a fresh interpreter, which pays for each module
    # the CLI imports.  Neither of these two is needed, and between them
    # they bring in about ten more.
    src = os.path.dirname(os.path.dirname(chart.__file__))
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            "import ccgscope.cli\n"
            "from ccgscope.lexicon import default_lexicon\n"
            "default_lexicon()\n"
            "print(*sorted(set(sys.modules) - before))\n")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    added = done.stdout.split()
    assert "ccgscope.cli" in added
    assert "dataclasses" not in added and "inspect" not in added, added


# --- exit codes -----------------------------------------------------------------

def test_unparseable_sentence_exits_one(capsys):
    code, _, err = run(capsys, "readings", "of three companies touched")
    assert code == 1
    assert "no parse" in err


def test_unknown_token_exits_two(capsys):
    code, _, err = run(capsys, "readings", "colorless green ideas")
    assert code == 2
    assert "colorless" in err


def test_unknown_token_names_multiword_lexemes(capsys):
    code, _, err = run(capsys, "readings", "every girl danced")
    assert code == 2
    assert err == "error: unknown token 'danced' at position 2 (only in 'danced with')\n"
    code, _, err = run(capsys, "readings", "colorless girl")
    assert err == "error: unknown token 'colorless' at position 0\n"


def test_item_budget_exits_two(capsys, monkeypatch):
    # 63 items survive pruning here.
    monkeypatch.setattr(chart, "MAX_ITEMS", 50)
    code, out, err = run(capsys, "readings", "every dealer shows most customers three cars")
    assert code == 2
    assert out == ""
    assert err == "error: chart exceeds the 50-item work budget\n"


def test_missing_lexicon_exits_two(capsys):
    code, _, err = run(capsys, "--lexicon", "/no/such/file", "parse", "john")
    assert code == 2
    assert "lexicon" in err


def test_missing_skeleton_exits_two(capsys):
    code, _, err = run(capsys, "compare", "john thinks that bill danced")
    assert code == 2
    assert "skeleton" in err


def test_closed_output_pipe_exits_zero_quietly(tmp_path, capsys, monkeypatch):
    # As in `ccgscope derive ... | head -1` once head has exited.
    class ClosedPipe:
        def __init__(self, fd):
            self.fd = fd

        def write(self, text):
            raise BrokenPipeError(errno.EPIPE, "Broken pipe")

        def flush(self):
            pass

        def fileno(self):
            return self.fd

    with open(tmp_path / "stdout", "w") as f:
        monkeypatch.setattr(sys, "stdout", ClosedPipe(f.fileno()))
        code = main(["derive", "every girl admired one saxophonist"])
        # The flush at exit now writes to devnull.
        assert os.path.samestat(os.fstat(f.fileno()), os.stat(os.devnull))
    assert code == 0
    assert capsys.readouterr().err == ""


FRENCHMEN = "three frenchmen visited five russians"
EVERY_MAN = "every man saw every man"
EVERY_MAN_THREE_LEAVES = ("saw(q?(every, X, man(X)),"
                          " q?(every, Y, and(man(Y), of(Y, q?(every, Z, man(Z))))))")
# Each x applies f 20 times to its argument, and each y 40 times; e puts
# its argument in the restriction of a set form, and d is a set form:
# normalization promotes both.
DEEP_TERM_LEXICON = ("x :: s:" + "f(" * 20 + "X" + ")" * 20 + "/s:X\nok :: s:ok\n"
                     "e :: s:p(s-e(Y^g(Y, S)))/s:S\nd :: s:p(s-e(girl))\n"
                     "y :: s:" + "f(" * 40 + "X" + ")" * 40 + "/s:X\n")
# Each x's argument np passes through composition, so the x's compose into
# one functor whose terms nest 40 deeper per x, where DEEP_TERM_LEXICON's
# x's apply one by one.
COMPOSED_DEEP_LEXICON = ("x :: np:" + "f(" * 40 + "X" + ")" * 40 + "/np:X\n"
                         "ok :: np:ok\ngo :: s:go(Y)/np:Y\n")


@pytest.mark.parametrize("argv, content, line", [
    (["corpus", "{}"], f"# counts\n2 {FRENCHMEN}\n", 2),
    (["corpus", "{}"], "UNGRAMMATICAL\tof three companies touched\n", 1),
    (["compare", "--skeletons", "{}", FRENCHMEN],
     f"{FRENCHMEN} visited(q?(three, F, frenchman(F)), q?(five, R, russian(R)))\n", 1),
    (["compare", "--skeletons", "{}", FRENCHMEN],
     f"{FRENCHMEN}\tvisited(q?(three, F, frenchman(F)),\n", 1),
    # A lexical set form directly under up(.) cannot be promoted.
    (["--lexicon", "{}", "readings", "zz"],
     _data_text("fragment.lex") + "zz :: s:think(up(s-every(girl)), john)\n", None),
    # Unification binds a lambda parameter to a constant.
    (["--lexicon", "{}", "readings", "x john"],
     "john :: np:john\nx :: s:p(X^f(X))/np:X\n", None),
    # A corpus file with no entries.
    (["corpus", "{}"], "# comments only\n\n", None),
    # A skeleton whose quantifiers are not the sentence's.
    (["compare", "--skeletons", "{}", FRENCHMEN],
     f"{FRENCHMEN}\tvisited(q?(every, F, frenchman(F)), q?(two, R, russian(R)))\n", None),
    # One quantifier more than the sentence has, under a label it has.
    (["compare", "--skeletons", "{}", EVERY_MAN],
     f"{EVERY_MAN}\t{EVERY_MAN_THREE_LEAVES}\n", None),
    # Nesting deeper than the parsers recurse.
    pytest.param(["compare", "--skeletons", "{}", FRENCHMEN],
                 f"{FRENCHMEN}\t" + "f(" * 3000 + "a" + ")" * 3000 + "\n", 1,
                 id="deep-skeleton"),
    pytest.param(["corpus", "{}"],
                 "UNGRAMMATICAL\tx ⊣ " + "(" * 3000 + "np" + ")" * 3000 + "\n", 1,
                 id="deep-corpus-category"),
    # A set form promoted out of a restriction that the rules nest deeper
    # than substitution recurses: each y wraps its argument in 40 more
    # f(.), 1,200 in all, and the restriction's path down to d's set form
    # is rebuilt, so the substitution into it walks that path.
    pytest.param(["--lexicon", "{}", "readings", "e " + "y " * 30 + "d"],
                 DEEP_TERM_LEXICON, None, id="deep-term-in-a-command"),
    # Equal categories 1,200 deep, built by composition, compare as nested
    # tuples deeper than the interpreter allows.
    pytest.param(["--lexicon", "{}", "readings", "go " + "x " * 30 + "ok"],
                 COMPOSED_DEEP_LEXICON, None, id="composed-deep-term"),
])
def test_malformed_input_is_a_one_line_error(tmp_path, capsys, argv, content, line):
    path = tmp_path / "input"
    path.write_text(content, encoding="utf-8")
    code, _, err = run(capsys, *(a.format(path) for a in argv))
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    if line is not None:
        assert f"line {line}:" in err


@pytest.mark.parametrize("leaf", [
    "q?(five, R)",
    "q?(five, R, russian(R), x)",
    "q?(R, five, russian(R))",
    "q?(five, r, russian(r))",
    "q?(f(five), R, russian(R))",
])
def test_a_bad_marked_leaf_is_named_as_written(tmp_path, capsys, leaf):
    path = tmp_path / "bad.skel"
    path.write_text(f"{FRENCHMEN}\tvisited(q?(three, F, frenchman(F)), {leaf})\n",
                    encoding="utf-8")
    code, out, err = run(capsys, "compare", "--skeletons", str(path), FRENCHMEN)
    assert (code, out) == (2, "")
    assert err == (f"error: {path}, line 1: bad marked leaf {leaf}:"
                   " a marked leaf must be q?(det, Var, restriction)\n")


def test_a_deeply_nested_term_gives_its_reading(tmp_path, capsys):
    # The rules build f applied 20 times per x to ok, up to 620 times in
    # the 32 tokens allowed.  A rule walks only what its unifier reaches,
    # and printing, keying and renaming take no recursion.  Normalization
    # rebuilds the path down to a set form without recursion, and its
    # substitution into a restriction skips a deep subterm that lacks the
    # restriction's variable, and recurses one frame per level into a
    # rebuilt one, on every supported Python.
    path = tmp_path / "deep.lex"
    path.write_text(DEEP_TERM_LEXICON, encoding="utf-8")

    def f(n, inner):
        return "f(" * n + inner + ")" * n

    for tokens, reading, scopes in [
            ("x " * 20 + "ok", f(400, "ok"), []),
            ("x " * 31 + "ok", f(620, "ok"), []),
            ("e " + "x " * 30 + "ok", f"q-e(v1, g(v1, {f(600, 'ok')}), p(v1))", []),
            ("x " * 31 + "d", f(620, "q-e(v1, girl(v1), p(v1))"), []),
            ("e " + "x " * 30 + "d",
             f"q-e(v1, g(v1, {f(600, 'q-e(v2, girl(v2), p(v2))')}), p(v1))",
             ["        e-g > e-girl"])]:
        code, out, err = run(capsys, "--lexicon", str(path), "readings", tokens)
        assert (code, err) == (0, "")
        assert out.splitlines()[1:] == [f"  x1  {reading}", *scopes]


@pytest.mark.parametrize("argv, data", [
    pytest.param(["corpus", "{}"], b"\xff\xfe bad\n", id="corpus-bytes"),
    pytest.param(["--lexicon", "{}", "parse", "john"], b"john :: np:john \xff\n",
                 id="lexicon-bytes"),
    pytest.param(["compare", "--skeletons", "{}", FRENCHMEN], b"\xfe\n",
                 id="skeleton-bytes"),
    pytest.param(["--lexicon", "{}", "parse", "x"],
                 ("x :: " + "(" * 3000 + "np" + ")" * 3000 + "\n").encode(),
                 id="deep-lexicon-category"),
])
def test_unreadable_user_file_is_a_one_line_error(tmp_path, capsys, argv, data):
    # Bytes that are not UTF-8, or nesting deeper than the parsers recurse.
    path = tmp_path / "input"
    path.write_bytes(data)
    code, _, err = run(capsys, *(a.format(path) for a in argv))
    assert code == 2
    assert "error: " in err and err.count("\n") == 1
    assert "Traceback" not in err


def test_user_files_may_start_with_a_byte_order_mark(tmp_path, capsys):
    # A UTF-8 byte-order mark is no part of the text: the corpus file's
    # first line is an entry, the skeleton file's first sentence is found
    # and the lexicon keeps its first entry, with no warning.
    path = tmp_path / "input"
    skeleton = _data_text("corpus.skel").splitlines()[2]
    assert skeleton.startswith(FRENCHMEN + "\t")
    bundled = run(capsys, "compare", FRENCHMEN)
    for text, argv, expected in [
            ("2\t" + FRENCHMEN, ["corpus", "{}"],
             (0, f"PASS  expected 2  got 2  {FRENCHMEN}\n1/1 corpus entries pass\n", "")),
            (skeleton, ["compare", "--skeletons", "{}", FRENCHMEN], bundled),
            ("x :: s:ok\n", ["--lexicon", "{}", "readings", "x"],
             (0, "1 readings of: x\n  x1  ok\n", ""))]:
        path.write_text("\ufeff" + text + "\n", encoding="utf-8")
        assert run(capsys, *(a.format(path) for a in argv)) == expected, argv
    # A byte that is not UTF-8 is counted from the start of the file.
    for data, at in [(b"\xef\xbb\xbf2\t\xff", 5), (b"2\t\xff", 2)]:
        path.write_bytes(data)
        assert run(capsys, "corpus", str(path)) \
            == (2, "", f"error: {path}: not UTF-8 text (byte {at})\n")


# --- parse and derive -------------------------------------------------------------

def test_parse_lists_full_span_categories(capsys):
    code, out, _ = run(capsys, "parse", "investigate two dialects of")
    assert code == 0
    assert "\\np" in out and "/np" in out


def test_parse_lists_full_span_items_in_printed_order(capsys):
    # Pinned on purpose: items are listed by their printed categories, not
    # in chart order (which differs here) and not by cat_key, whose class
    # tokens have no order.  Text and JSON list the same items.
    sentence = "that every girl"
    items = [
        ("(sbar:q-every(v1, girl(v1), v2)/np:v3)/((s:v2/np:v3)\\np:num(v1, sg))", 1),
        ("(sbar:v1/np:v2)/((s:v1/np:v2)\\np:num(s-every(girl), sg))", 1),
        ("sbar:q-every(v1, girl(v1), v2)/(s:v2\\np:num(v1, sg))", 1),
        ("sbar:v1/(s:v1\\np:num(s-every(girl), sg))", 1),
    ]
    chart_order = [cat_text(it.cat)
                   for it in chart.parse(tokenize(sentence), default_lexicon()).full_span()]
    assert sorted(chart_order) == [cat for cat, _ in items] != chart_order
    code, out, _ = run(capsys, "parse", sentence)
    assert (code, out) == (0, "that every girl\n" + "".join(
        f"  {cat}  [{n} derivations]\n" for cat, n in items))
    code, out, _ = run(capsys, "--json", "parse", sentence)
    doc = {"sentence": sentence, "tokens": ["that", "every", "girl"],
           "items": [{"cat": cat, "derivations": n} for cat, n in items]}
    assert (code, out) == (0, json.dumps(doc, indent=2) + "\n")


ATOM_LIKE_A_VARIABLE_LEXICON = ("a :: s:p(s-e(Y))/n:Y\n"
                                "a :: s:p(s-e(X^v1(X)))/n:Z\n"
                                "girl :: n:X^girl(X)\n")


def test_an_atom_spelled_like_a_canonical_variable_is_not_a_variable(tmp_path, capsys):
    # The second entry holds s-e(X^v1(X)), which stays as it is in chart
    # form: eta-reduced, it would hold an atom v1 that prints as the first
    # canonical variable does.  The first entry holds the variable Y.  They
    # are not variants, so the chart keeps two lexical items of "a", and
    # "a girl" two full-span items, printed apart, and two readings.
    path = tmp_path / "user.lex"
    path.write_text(ATOM_LIKE_A_VARIABLE_LEXICON)
    code, out, _ = run(capsys, "--lexicon", str(path), "parse", "a girl")
    assert (code, out) == (0, "a girl\n"
                              "  s:p(s-e(girl))  [1 derivations]\n"
                              "  s:p(s-e(v1^v1(v1)))  [1 derivations]\n")
    code, out, _ = run(capsys, "--lexicon", str(path), "--json", "readings", "a girl")
    assert code == 0
    assert len(json.loads(out)["readings"]) == 2


@pytest.mark.parametrize("sentence", ["a", "a girl"])
def test_printed_categories_read_back_to_their_items(tmp_path, capsys, sentence):
    # Each --json parse cat string reads back to a category with its
    # item's key, so no two items print alike.
    path = tmp_path / "user.lex"
    path.write_text(ATOM_LIKE_A_VARIABLE_LEXICON)
    code, out, _ = run(capsys, "--lexicon", str(path), "--json", "parse", sentence)
    assert code == 0
    texts = [item["cat"] for item in json.loads(out)["items"]]
    lex = load_lexicon(ATOM_LIKE_A_VARIABLE_LEXICON)
    items = chart.parse(tokenize(sentence), lex).full_span()
    assert len(texts) == len(items) == 2
    assert Counter(cat_key(parse_cat(text)) for text in texts) \
        == Counter(cat_key(it.cat) for it in items)


def test_derive_respects_display_cap(capsys):
    code, out, _ = run(capsys, "derive", "three frenchmen visited five russians",
                       "--max-derivations", "1")
    assert code == 0
    assert out.count("[lex]") == 5
    assert "capped at 1" in out


@pytest.mark.parametrize("argv", [
    ["--json", "derive", "every girl admired one saxophonist"],
    ["--json", "corpus"],
], ids=["derive", "corpus"])
def test_json_with_a_text_only_command_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {argv[1]} has no --json output\n"


@pytest.mark.parametrize("cap", ["0", "-3", "1.5", "abc"])
def test_derive_cap_that_is_not_a_positive_integer_is_a_usage_error(capsys, cap):
    with pytest.raises(SystemExit) as exc:
        main(["derive", FRENCHMEN, "--max-derivations", cap])
    assert exc.value.code == 2
    assert capsys.readouterr() == (
        "", f"error: argument --max-derivations: expected a positive integer, got {cap}\n")


@pytest.mark.parametrize("argv, message", [
    (["readings", "-x"], "the following arguments are required: sentence"),
    ([], "the following arguments are required: command"),
], ids=["dash-sentence", "no-command"])
def test_a_usage_error_is_one_line(capsys, argv, message):
    # The subcommand parsers are of the top parser's class, so theirs are
    # one line too (and derive's cap, above).
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_help_and_a_dash_sentence_after_double_dash(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["readings", "-h"])
    assert exc.value.code == 0
    out = capsys.readouterr()
    assert out.out.startswith("usage: ccgscope readings") and out.err == ""
    assert run(capsys, "readings", "--", "-x") \
        == (2, "", "error: unknown token '-x' at position 0\n")


# --- compare ------------------------------------------------------------------------

def test_compare_reports_unrealized_order(capsys):
    code, out, _ = run(capsys, "compare",
                       "two representatives of three companies saw most samples")
    assert code == 0
    assert "baseline orders: 6" in out
    assert "uvc survivors:   5" in out
    assert "derived readings: 4" in out
    assert "three > most > two" in out


def test_compare_json_schema(capsys):
    code, out, _ = run(capsys, "--json", "compare",
                       "every dealer shows most customers three cars")
    assert code == 0
    doc = json.loads(out)
    assert (doc["enumerated"], doc["uvc"], doc["ccg"]) == (6, 6, 6)
    assert doc["gap"] == []


# --- corpus --------------------------------------------------------------------------

def test_bundled_corpus_passes(capsys):
    code, out, _ = run(capsys, "corpus")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
    assert len(lines) == 11
    assert all(l.startswith("PASS") for l in lines)
    assert lines[0].endswith("three frenchmen visited five russians")


def test_corpus_mismatch_exits_three(tmp_path, capsys):
    bad = tmp_path / "corpus.txt"
    bad.write_text("3\tthree frenchmen visited five russians\n")
    code, out, _ = run(capsys, "corpus", str(bad))
    assert code == 3
    assert "FAIL" in out


def test_a_corpus_count_is_read_as_a_number(tmp_path, capsys):
    path = tmp_path / "mine.txt"
    path.write_text(f" 2\t{FRENCHMEN}\n2 \t{FRENCHMEN}\n02\t{FRENCHMEN}\n", encoding="utf-8")
    code, out, _ = run(capsys, "corpus", str(path))
    assert code == 0
    assert out == f"PASS  expected 2  got 2  {FRENCHMEN}\n" * 3 + "3/3 corpus entries pass\n"


@pytest.mark.parametrize("count", ["two", "-2", "2.0", "no parse", "²", ""],
                         ids=["word", "negative", "decimal", "no-parse", "superscript", "empty"])
def test_a_corpus_count_that_is_not_a_number_is_a_malformed_line(tmp_path, capsys, count):
    path = tmp_path / "mine.txt"
    path.write_text(f"2\t{FRENCHMEN}\n{count}\t{FRENCHMEN}\n", encoding="utf-8")
    code, out, err = run(capsys, "corpus", str(path))
    assert (code, out) == (2, "")
    assert err == (f"error: {path}, line 2: expected a reading count or"
                   f" UNGRAMMATICAL, got {count!r}\n")


@pytest.mark.parametrize("content, line, message", [
    ("# counts\n1\tjohn saw a zebra\n", 2, "unknown token 'zebra' at position 3"),
    (f"2\t{FRENCHMEN}\nUNGRAMMATICAL\tof three zebras touched ⊣ np\n", 2,
     "unknown token 'zebras' at position 2"),
    ("1\t" + "john saw mary " * 11 + "\n", 1, "33 tokens exceeds the 32-token limit"),
], ids=["unknown-word", "ungrammatical-unknown-word", "too-long"])
def test_a_corpus_sentence_that_cannot_be_parsed_names_its_line(tmp_path, capsys,
                                                                content, line, message):
    path = tmp_path / "mine.txt"
    path.write_text(content, encoding="utf-8")
    code, out, err = run(capsys, "corpus", str(path))
    assert (code, out, err) == (2, "", f"error: {path}, line {line}: {message}\n")


def test_a_bundled_corpus_sentence_that_cannot_be_parsed_names_its_line(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_data_text", lambda name: "# c\n\n1\tjohn saw a zebra\n")
    code, out, err = run(capsys, "corpus")
    assert (code, out) == (2, "")
    assert err == "error: corpus.txt, line 3: unknown token 'zebra' at position 3\n"


def test_corpus_negative_entry_detects_conjoinable_shape(tmp_path, capsys):
    entries = tmp_path / "corpus.txt"
    entries.write_text(
        "UNGRAMMATICAL\tof three companies touched ⊣ (s\\np)/np\n"
        "UNGRAMMATICAL\tinvestigate two dialects of ⊣ (s\\np)/np\n")
    code, out, _ = run(capsys, "corpus", str(entries))
    assert code == 3
    lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
    assert lines[0].startswith("PASS")
    assert lines[1].startswith("FAIL")


# --- mutated inputs -----------------------------------------------------------------

# Characters a mutation inserts: the syntax of every input file, blanks,
# tabs, newlines, a prime, letters spelled like variables and non-ASCII.
MUTATION_CHARS = "()/\\:^,#?-_' \t\nxXvV01⊣é"


def mutated(text, rng):
    """text after one to four edits: a character dropped, inserted,
    doubled or swapped with the next, or a line dropped or doubled."""
    for _ in range(rng.randint(1, 4)):
        i = rng.randrange(len(text) + 1)
        edit = rng.randrange(6)
        if edit == 0:
            text = text[:i] + text[i + 1:]
        elif edit == 1:
            text = text[:i] + rng.choice(MUTATION_CHARS) + text[i:]
        elif edit == 2:
            text = text[:i] + text[i:i + 1] + text[i:]
        elif edit == 3:
            text = text[:i] + text[i + 1:i + 2] + text[i:i + 1] + text[i + 2:]
        else:
            lines = text.split("\n")
            k = rng.randrange(len(lines))
            lines[k:k + 1] = [] if edit == 4 else [lines[k], lines[k]]
            text = "\n".join(lines)
    return text


def mutated_cases(rng):
    """(argv, file text or None) per case: a mutated bundled lexicon,
    corpus.txt, corpus.skel, or corpus sentence; {} in argv is the file."""
    sentences = [row[1] for row in read_data("corpus.txt", None, lambda *row: row)]
    skel_sentences = [row[0] for row in read_data("corpus.skel", None, lambda *row: row)]
    short = [s for s in sentences if len(s.split()) <= 7]
    commands = [["readings"], ["--json", "readings"], ["--json", "parse"],
                ["derive", "--max-derivations", "3"]]
    for _ in range(25):
        yield (["--lexicon", "{}", "readings", rng.choice(short)],
               mutated(_data_text("fragment.lex"), rng))
        yield ["corpus", "{}"], mutated(_data_text("corpus.txt"), rng)
        yield (["compare", "--skeletons", "{}", rng.choice(skel_sentences)],
               mutated(_data_text("corpus.skel"), rng))
        yield rng.choice(commands) + [mutated(rng.choice(sentences), rng)], None


# Failure lines stated by hand: compare on a sentence with no skeleton,
# and parse and derive with no full-span constituent.
PREFIXED_FAILURES = [
    (["compare", "john smiled"], 2, "error: no skeleton for: john smiled"),
    (["compare", ""], 2, "error: no skeleton for: "),
    (["parse", "of three companies touched"], 1, "no parse: no full-span constituent"),
    (["derive", "of three companies touched"], 1, "no parse: no full-span constituent"),
]


@pytest.mark.parametrize("argv, code, line", PREFIXED_FAILURES)
def test_a_failure_line_starts_with_its_prefix(capsys, argv, code, line):
    assert run(capsys, *argv)[::2] == (code, line + "\n")


def test_mutated_inputs_exit_zero_to_three_with_one_error_line(tmp_path, capsys):
    # Every input gives a result or a one-line error: each exit other than
    # 0 and 3 prints one stderr line besides warnings, and no exception
    # but argparse's exit escapes main.  An exit-1 line starts "no parse: ",
    # and an exit-2 line "error: " or "lexicon error: ".
    path = tmp_path / "input"
    cases = [(argv, None) for argv, _, _ in PREFIXED_FAILURES]
    for n, (argv, text) in enumerate(cases + list(mutated_cases(random.Random(24)))):
        if text is not None:
            path.write_text(text, encoding="utf-8")
        argv = [a.format(path) for a in argv]
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        err = [line for line in capsys.readouterr().err.splitlines()
               if not line.startswith("warning: ")]
        assert code in (0, 1, 2, 3), (n, argv, text)
        if code not in (0, 3):
            assert len(err) == 1, (n, argv, text, err)
            prefixes = ("no parse: ",) if code == 1 else ("error: ", "lexicon error: ")
            assert err[0].startswith(prefixes), (n, argv, text, err)
