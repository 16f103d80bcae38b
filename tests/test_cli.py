import errno
import json
import os
import subprocess
import sys

import pytest

from ccgscope import chart
from ccgscope.cli import _data_text, main, tokenize
from ccgscope.lexicon import default_lexicon
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
# Each x applies f 20 times to its argument.
DEEP_TERM_LEXICON = "x :: s:" + "f(" * 20 + "X" + ")" * 20 + "/s:X\nok :: s:ok\n"


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
    # A term that the rules nest deeper than normalization recurses: each
    # x wraps its argument in 20 more f(.), 620 in all.
    pytest.param(["--lexicon", "{}", "readings", "x " * 31 + "ok"],
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
    # The rules build f applied 400 times to ok.  A rule walks only what
    # its unifier reaches, and printing and keying take no recursion.
    path = tmp_path / "deep.lex"
    path.write_text(DEEP_TERM_LEXICON, encoding="utf-8")
    code, out, err = run(capsys, "--lexicon", str(path), "readings", "x " * 20 + "ok")
    assert (code, err) == (0, "")
    assert out.splitlines()[1:] == [f"  x1  {'f(' * 400}ok{')' * 400}"]


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


def test_derive_respects_display_cap(capsys):
    code, out, _ = run(capsys, "derive", "three frenchmen visited five russians",
                       "--max-derivations", "1")
    assert code == 0
    assert out.count("[lex]") == 5
    assert "capped at 1" in out


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
