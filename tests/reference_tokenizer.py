"""A reference tokenizer for ``.lq`` text: one ``finditer`` pass that
builds a ``Token`` per token.  ``lqlang.parser.tokenize`` must give the same
kinds, texts, offsets and locations, and the same first bad-character
diagnostic (``test_tokenizer.py``).

This is the tokenizer the parser used before it kept tokens as flat lists,
with one difference it documents: its ``\\d`` accepts any Unicode digit in
an integer literal, where ``lqlang`` reads ASCII digits only.
"""

from __future__ import annotations

import re
from bisect import bisect_right

from lqlang.diagnostics import CheckError, Kind
from lqlang.syntax import Loc

# Whitespace and comments form one unnamed group (``lastgroup`` is None);
# any other character falls through to ``bad``, which must come last.
_TOKEN_RE = re.compile(r"""
    (?P<ident>[A-Za-z_][A-Za-z0-9_']*)
  | (?:--[^\n]*|\s+)+
  | (?P<op>/\\|->|-o|[\\@\[\](){}:.,;=+*])
  | (?P<int>\d+)
  | (?P<bad>.)
""", re.VERBOSE | re.DOTALL)

EOF_PADDING = 2


class Token:
    """A token and its offset into the text; ``loc`` is computed from the
    file's table of line starts (offsets just after each newline)."""

    __slots__ = ("kind", "text", "pos", "line_starts")

    def __init__(self, kind: str, text: str, pos: int,
                 line_starts: list[int]) -> None:
        self.kind = kind  # "int" | "ident" | "op" | "eof"
        self.text = text
        self.pos = pos
        self.line_starts = line_starts

    @property
    def loc(self) -> Loc:
        line = bisect_right(self.line_starts, self.pos)
        return Loc(line, self.pos - self.line_starts[line - 1] + 1)


def tokenize(text: str) -> list[Token]:
    """The tokens of ``text``, followed by ``EOF_PADDING`` eof tokens."""
    line_starts = [0]
    line_starts.extend(m.end() for m in re.finditer("\n", text))
    tokens: list[Token] = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind is None:
            continue
        tok = Token(kind, m.group(), m.start(), line_starts)
        if kind == "bad":
            raise CheckError.single(Kind.SYNTAX,
                                    f"unexpected character {tok.text!r}",
                                    tok.loc)
        tokens.append(tok)
    tokens.extend([Token("eof", "", len(text), line_starts)] * EOF_PADDING)
    return tokens
