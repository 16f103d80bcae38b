"""Command-line front end.

Commands: parse, readings, derive, compare, corpus.  Exit codes: 0 on
success, 1 when a sentence has no full-span derivation, 2 for usage
(--json with derive or corpus, which print text only, included),
lexicon, unknown-token, malformed data-file or mismatched skeleton
problems and terms nested too deeply, 3 when a corpus run has mismatches.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import warnings
from typing import Callable, List, Optional

from .baseline import BaselineError, compare, nesting_order, parse_skeleton
from .categories import CatError, cat_shape, cat_text, parse_cat
from .chart import ResourceError, count_derivations, derivations, parse, pretty
from .lexicon import LexiconError, UnknownTokenError, default_lexicon, load_lexicon
from .lexicon import data_text as _data_text
from .readings import NoParseError, StructuralError, readings, scope_profile
from .terms import TermError, format_term

_WORD = re.compile(r"[a-z0-9-]+|,")


def tokenize(text: str) -> List[str]:
    """Lowercase words plus standalone commas; other punctuation dropped."""
    return _WORD.findall(text.lower())


class DataFileError(Exception):
    """A malformed line in a corpus or skeleton file, or a user file that
    is not UTF-8."""


def read_data(name: str, path: Optional[str], row: Callable) -> list:
    """row(first, rest) for each line of a tab-separated data file.

    Reads the file at path, or the bundled file name when path is None.
    Comments (``#`` to end of line) and blank lines are skipped.  A line
    without a tab, one row rejects or one nested too deeply to parse
    raises DataFileError naming the file and line number.  A row may
    parse the line's sentence: an unknown token or a sentence over the
    token limit is rejected like a malformed line.
    """
    text = _data_text(name) if path is None else _read_file(path)
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line:
            continue
        try:
            if "\t" not in line:
                raise DataFileError("expected two tab-separated fields")
            out.append(row(*line.split("\t", 1)))
        except (DataFileError, TermError, BaselineError, CatError, UnknownTokenError,
                ResourceError, StructuralError) as exc:
            raise DataFileError(f"{path or name}, line {lineno}: {exc}") from exc
        except RecursionError:
            raise DataFileError(f"{path or name}, line {lineno}: nested too deeply") from None
    return out


def _read_file(path: str) -> str:
    """The text of a user file, less a UTF-8 byte-order mark if it starts
    with one; DataFileError unless it is UTF-8."""
    with open(path, "rb") as f:
        data = f.read()
    try:
        return data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        # exc.object is what follows the mark, if there is one.
        at = len(data) - len(exc.object) + exc.start
        raise DataFileError(f"{path}: not UTF-8 text (byte {at})") from None


def _load_lexicon(path: Optional[str]):
    """The lexicon at path, or the bundled one.  Each warning the load
    raises, such as a duplicate entry, goes to stderr as one line
    ``warning: <message>``; under ``-W error`` too, it stays a warning.
    A lexicon at path also gets one warning per lexeme that no sentence
    can match, as tokenize does not give its text back word for word."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            if path is None:
                return default_lexicon()
            lex = load_lexicon(_read_file(path))
            for lexeme in dict.fromkeys(e.lexeme for e in lex.entries):
                if tokenize(" ".join(lexeme)) != list(lexeme):
                    warnings.warn(f"lexeme {' '.join(lexeme)!r} never matches: sentences"
                                  " are read as lowercase words, digits, hyphens and commas")
            return lex
        finally:
            for w in caught:
                print(f"warning: {w.message}", file=sys.stderr)


def _positive_int(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        n = None
    if n is None or n < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return n


def _printed_items(chart) -> list:
    """(printed category, item) for each full-span item, in printed order;
    items that print alike keep their chart order."""
    return sorted(((cat_text(it.cat), it) for it in chart.full_span()),
                  key=lambda pair: pair[0])


# --- commands ---------------------------------------------------------------

def _cmd_parse(args, lex, out) -> int:
    tokens = tokenize(args.sentence)
    chart = parse(tokens, lex)
    items = _printed_items(chart)
    counts = count_derivations(chart)
    if args.json:
        doc = {"sentence": args.sentence, "tokens": tokens,
               "items": [{"cat": text, "derivations": counts[it.id]}
                         for text, it in items]}
        print(json.dumps(doc, indent=2), file=out)
    else:
        print(" ".join(tokens), file=out)
        for text, it in items:
            print(f"  {text}  [{counts[it.id]} derivations]", file=out)
    if not items:
        print("no parse: no full-span constituent", file=sys.stderr)
        return 1
    return 0


def _reading_doc(tokens, rs):
    return {
        "sentence": " ".join(tokens),
        "tokens": list(tokens),
        "readings": [{
            "lf": format_term(r.term),
            "multiplicity": r.multiplicity,
            "outscopes": sorted([a, b] for a, b in scope_profile(r.term)),
        } for r in rs],
        "derivation_count": sum(r.multiplicity for r in rs),
    }


def _cmd_readings(args, lex, out) -> int:
    tokens = tokenize(args.sentence)
    rs = readings(tokens, lex)
    if args.json:
        print(json.dumps(_reading_doc(tokens, rs), indent=2), file=out)
    else:
        print(f"{len(rs)} readings of: {' '.join(tokens)}", file=out)
        for r in rs:
            print(f"  x{r.multiplicity}  {format_term(r.term)}", file=out)
            for a, b in sorted(scope_profile(r.term)):
                print(f"        {a} > {b}", file=out)
    return 0


def _cmd_derive(args, lex, out) -> int:
    tokens = tokenize(args.sentence)
    chart = parse(tokens, lex)
    items = _printed_items(chart)
    if not items:
        print("no parse: no full-span constituent", file=sys.stderr)
        return 1
    shown = 0
    for _, it in items:
        for tree in derivations(chart, it):
            if shown >= args.max_derivations:
                print(f"... display capped at {args.max_derivations}", file=out)
                return 0
            print(pretty(chart, tree), file=out)
            print(file=out)
            shown += 1
    return 0


def _skeleton_table(path: Optional[str]) -> dict:
    return dict(read_data(
        "corpus.skel", path,
        lambda sent, skel: (" ".join(tokenize(sent)), parse_skeleton(skel.strip()))))


def _corpus_entry(expect: str, text: str) -> tuple:
    """(expected count, sentence, None, None), or for an UNGRAMMATICAL entry
    (expect, fragment, category text, its cat_shape).  The count is a
    non-negative integer, blanks around it allowed."""
    expect = expect.strip()
    if expect != "UNGRAMMATICAL":
        if not (expect.isascii() and expect.isdigit()):
            raise DataFileError(
                f"expected a reading count or UNGRAMMATICAL, got {expect!r}")
        return int(expect), text, None, None
    parts = [part.strip() for part in text.split("⊣")]
    if len(parts) != 2:
        raise DataFileError("an UNGRAMMATICAL entry needs 'fragment ⊣ category'")
    return expect, parts[0], parts[1], cat_shape(parse_cat(parts[1]))


def _cmd_compare(args, lex, out) -> int:
    tokens = tokenize(args.sentence)
    table = _skeleton_table(args.skeletons)
    key = " ".join(tokens)
    if key not in table:
        print(f"error: no skeleton for: {key}", file=sys.stderr)
        return 2
    report = compare(tokens, table[key], lex)
    if args.json:
        doc = {"sentence": key, "tokens": tokens,
               "enumerated": len(report.enumerated),
               "uvc": len(report.survivors),
               "ccg": len(report.ccg),
               "gap": [list(nesting_order(f)) for f in report.gap]}
        print(json.dumps(doc, indent=2), file=out)
    else:
        print(f"baseline orders: {len(report.enumerated)}", file=out)
        print(f"uvc survivors:   {len(report.survivors)}", file=out)
        print(f"derived readings: {len(report.ccg)}", file=out)
        if report.gap:
            print("orders no derivation realizes:", file=out)
            for f in report.gap:
                print(f"  {' > '.join(nesting_order(f))}", file=out)
                print(f"    {format_term(f)}", file=out)
        else:
            print("every surviving order is realized", file=out)
    return 0


def _corpus_row(lex, expect, sent: str, shape_text: Optional[str], shape) -> tuple:
    """(ok, expected, got, shown text) for one corpus entry."""
    if shape is not None:
        chart = parse(tokenize(sent), lex)
        hits = [it for it in chart.full_span() if it.shape == shape]
        return not hits, "none", f"{len(hits)} items", sent + " ⊣ " + shape_text
    try:
        got = len(readings(tokenize(sent), lex))
    except NoParseError:
        got = "no parse"
    return got == expect, str(expect), str(got), sent


def _cmd_corpus(args, lex, out) -> int:
    # Each entry runs as its line is read, so an error names the line.
    rows = read_data("corpus.txt", args.path,
                     lambda expect, text: _corpus_row(lex, *_corpus_entry(expect, text)))
    if not rows:
        raise DataFileError(f"{args.path or 'corpus.txt'}: no corpus entries")
    failures = sum(not row[0] for row in rows)
    width = max(len(r[1]) for r in rows)
    for ok, expect, got, sent in rows:
        mark = "PASS" if ok else "FAIL"
        print(f"{mark}  expected {expect:>{width}}  got {got:>{width}}  {sent}",
              file=out)
    print(f"{len(rows) - failures}/{len(rows)} corpus entries pass", file=out)
    return 3 if failures else 0


# --- entry point --------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are one line, ``error: …``,
    with exit code 2.  add_subparsers makes the subcommand parsers of the
    parser's own class, so theirs are too."""

    def error(self, message: str):
        self.exit(2, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="ccgscope",
        description="Parse a fixed English fragment and enumerate its "
                    "scoped readings.")
    ap.add_argument("--lexicon", metavar="PATH",
                    help="lexicon file (default: bundled fragment)")
    ap.add_argument("--json", action="store_true", help="machine-readable output")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="show full-span categories")
    p.add_argument("sentence")
    p = sub.add_parser("readings", help="enumerate canonical scoped readings")
    p.add_argument("sentence")
    p = sub.add_parser("derive", help="print derivation trees")
    p.add_argument("sentence")
    p.add_argument("--max-derivations", type=_positive_int, default=10, metavar="N")
    p = sub.add_parser("compare", help="quantifier-ordering baseline vs readings")
    p.add_argument("sentence")
    p.add_argument("--skeletons", metavar="PATH",
                   help="skeleton file (default: bundled)")
    p = sub.add_parser("corpus", help="run the expected-count corpus")
    p.add_argument("path", nargs="?", help="corpus file (default: bundled)")
    return ap


_DISPATCH = {
    "parse": _cmd_parse,
    "readings": _cmd_readings,
    "derive": _cmd_derive,
    "compare": _cmd_compare,
    "corpus": _cmd_corpus,
}


# Commands whose output has no JSON form: --json with one is a usage error.
_TEXT_ONLY = ("derive", "corpus")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.json and args.command in _TEXT_ONLY:
        print(f"error: {args.command} has no --json output", file=sys.stderr)
        return 2
    try:
        lex = _load_lexicon(args.lexicon)
    except (OSError, LexiconError, DataFileError) as exc:
        print(f"lexicon error: {exc}", file=sys.stderr)
        return 2
    try:
        code = _DISPATCH[args.command](args, lex, sys.stdout)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed the pipe (ccgscope derive ... | head): output
        # ends here.  Point stdout at devnull so the flush at exit stays quiet.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except NoParseError as exc:
        print(f"no parse: {exc}", file=sys.stderr)
        return 1
    except (UnknownTokenError, BaselineError, CatError, LexiconError, TermError,
            StructuralError, DataFileError, ResourceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print(f"error: {args.command}: a term is nested too deeply", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
