import errno
import json
import os
import subprocess
import sys
from collections import Counter

import pytest

from ccgscope import chart, cli
from ccgscope.categories import cat_key, cat_text, parse_cat
from ccgscope.cli import _data_text, main, tokenize
from ccgscope.lexicon import default_lexicon, load_lexicon
from ccgscope.readings import readings
from ccgscope.terms import canonicalize, parse_term


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
     "lexicon error: line 1: quantifier q-every binds the non-variable j\n")])
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


@pytest.mark.parametrize("cap", ["0", "-3"])
def test_derive_cap_below_one_is_a_usage_error(capsys, cap):
    with pytest.raises(SystemExit) as exc:
        main(["derive", FRENCHMEN, "--max-derivations", cap])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--max-derivations" in err and "Traceback" not in err


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
