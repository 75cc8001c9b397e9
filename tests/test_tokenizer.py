"""The tokenizer against the reference tokenizer: same kinds, texts,
offsets and locations, and the same first bad-character diagnostic."""

from hypothesis import given, settings, strategies as st
import pytest

import reference_tokenizer as reference
from lqlang.cli import main
from lqlang.diagnostics import CheckError
from lqlang.parser import prelude_source, tokenize

from conftest import DATA, corpus_files, reject_files, special_files


def _texts() -> list[str]:
    paths = (corpus_files() + reject_files() + special_files()
             + sorted(DATA.glob("*.lq")))
    return [prelude_source()] + [p.read_text("utf-8") for p in paths]


def _outcome(tokens) -> tuple:
    """(kinds, texts, offsets, locations) of a token list from either
    tokenizer."""
    if isinstance(tokens, list):
        return ([t.kind for t in tokens], [t.text for t in tokens],
                [t.pos for t in tokens], [t.loc for t in tokens])
    return (tokens.kinds, tokens.texts, tokens.offsets,
            [tokens.loc(i) for i in range(len(tokens.texts))])


def _run(tokenizer, text: str) -> tuple:
    try:
        return _outcome(tokenizer(text))
    except CheckError as exc:
        return ("error", [str(d) for d in exc.diagnostics])


CORPUS_TOKENS = sorted({tok.text for text in _texts()
                        for tok in reference.tokenize(text)
                        if tok.kind != "eof"})

# Pieces that form tokens with their neighbours, or are bad on their own
FRAGMENTS = ["-", "/", "\\", ">", "o", "'", "x'", "f''", "a'b", "_", "9",
             "007"]
# Characters that start no token.  No non-ASCII digit: the reference
# reads those as an integer (``test_integer_literals_are_ascii_only``).
STRAY = list("$#!?&|%^~`\"<>éλ\x00")
# Whitespace: both tokenizers skip all that ``str.isspace`` accepts.
SPACE = [" ", "\t", "\r\n", "\n", "\r", "\x0b", "\x0c", "\x1c", "\u00a0",
         "\u2003"]

words = st.one_of(
    st.sampled_from(CORPUS_TOKENS),
    st.sampled_from(FRAGMENTS),
    st.sampled_from(SPACE),
    st.text(st.characters(blacklist_characters="\n"), max_size=8)
    .map(lambda body: "--" + body),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(words, max_size=40).map("".join))
def test_tokenizer_matches_the_reference(text):
    assert _run(tokenize, text) == _run(reference.tokenize, text)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.one_of(words, st.sampled_from(STRAY)), max_size=40)
       .map("".join))
def test_tokenizer_matches_the_reference_on_bad_characters(text):
    assert _run(tokenize, text) == _run(reference.tokenize, text)


def test_tokenizer_matches_the_reference_on_the_corpus():
    for text in _texts():
        assert _run(tokenize, text) == _run(reference.tokenize, text)


@pytest.mark.parametrize("text, bad, col", [
    ("main = 1 - 2", "-", 10),
    ("main = 1 / 2", "/", 10),
    ("main = 1 -", "-", 10),
])
def test_a_lone_minus_or_slash_is_a_bad_character(text, bad, col):
    with pytest.raises(CheckError) as e:
        tokenize(text)
    assert str(e.value.diagnostics[0]) == \
        f"1:{col}: Syntax: unexpected character '{bad}'"


def test_integer_literals_are_ascii_only(tmp_path, capsys):
    """An Arabic-Indic ``12`` was an integer literal to the reference (and
    ran, printing 13); it is now a bad character under every command."""
    src = "main = add(١٢, 1)\n"
    assert [(t.kind, t.text) for t in reference.tokenize(src)][4] == \
        ("int", "١٢")
    path = tmp_path / "arabic_indic.lq"
    path.write_text(src, "utf-8")
    for args in (["check", str(path)], ["run", "--sem=both", str(path)]):
        code = main(args)
        out, err = capsys.readouterr()
        assert (code, out, err) == (
            1, "", f"{path}:1:12: Syntax: unexpected character '١'\n")
