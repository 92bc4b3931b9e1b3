"""Line-oriented automaton documents, and words.

Document grammar (one directive per line, '#' starts a comment, blank lines
ignored, tokens separated by whitespace):

    lattice NAME            boolean | godel | goguen | lukasiewicz | chain K
    alphabet SYM...         one or more distinct symbols, none '_' or holding '.'
    states N
    initial V...            N values
    terminal V...           N values
    transitions SYM         followed by N rows of N values
    ...                     one transitions block per alphabet symbol

Each block appears once. lattice and states come before initial and
terminal, and lattice, alphabet and states before every transitions block;
the order is otherwise free. Values are decimal literals, p/q rationals,
or chain indices, in ASCII digits, and must lie in the declared lattice.
reference.serialize_automaton writes the canonical form: blocks in the
order above, symbols in alphabet order, reduced values, terminating
decimals preferred over p/q. Parsing a serialized document yields an equal
automaton.

Words elsewhere in the package render as '_' for the empty word and
dot-separated symbols otherwise, e.g. 'x.y.x'. DOT export, which only det
and equiv write, is in detcli, and psi matrix documents are in psi (see
parse_matrix), whose rows _matrix reads, as a transitions block's.
"""

import re
from collections import namedtuple

from .automata import FuzzyAutomaton, Word, bad_symbol, symbol_index
from .algebra import FuzzyMatrix, FuzzyVector, _rows
from .errors import FormatError, LatticeMismatch, UnknownSymbol
from .lattice import _INDEX, NAMED, Lattice, Value, _read_int, _write, chain


def format_word(word: Word) -> str:
    """'_' for the empty word, dot-joined symbols otherwise."""
    return ".".join(word) if word else "_"


def parse_word(text: str, alphabet: tuple[str, ...]) -> Word:
    """Inverse of format_word; every symbol must be in the alphabet."""
    if text == "_":
        return ()
    parts = text.split(".")
    for p in parts:
        if not p:
            raise UnknownSymbol(f"malformed word {text!r}")
        symbol_index(alphabet, p)
    return tuple(parts)


def _quote(s: str) -> str:
    """s as a DOT string literal, for the writers in detcli and reference."""
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


# -- parsing ---------------------------------------------------------------


_Token = namedtuple("_Token", "text line column")


def _tokenize(text: str) -> list[list[_Token]]:
    """Split into logical lines of tokens, dropping comments and blanks."""
    lines = []
    # Lines end at \r\n, \r and \n, as in universal newlines, not also at the
    # form feeds and Unicode separators of str.splitlines: those separate tokens.
    for number, raw in enumerate(text.replace("\r\n", "\n").replace("\r", "\n").split("\n"), 1):
        body = raw.split("#", 1)[0]
        tokens = [_Token(m.group(), number, m.start() + 1) for m in re.finditer(r"\S+", body)]
        if tokens:
            lines.append(tokens)
    return lines


def _positive_int(tokens: list[_Token], message: str, line: int) -> int:
    """The value of a lone positive token of ASCII digits, else FormatError(message)."""
    text = tokens[0].text if len(tokens) == 1 else ""
    if not _INDEX.fullmatch(text) or (value := _read_int(text)) < 1:
        raise FormatError(message, line)
    return value


def _parse_values(lattice: Lattice, tokens: list[_Token], count: int, what: str, line: int,
                  parsed: dict[str, Value]) -> list[Value]:
    """The count values of tokens, read on the given line. parsed maps each
    token text its document has shown so far to its value, read once."""
    if len(tokens) != count:
        raise FormatError(f"{what} needs {_write(count)} values, got {len(tokens)}", line)
    for t in tokens:
        if t.text not in parsed:
            try:
                parsed[t.text] = lattice.parse_value(t.text)
            except (ValueError, LatticeMismatch) as e:
                raise FormatError(str(e), t.line, t.column) from None
    return [parsed[t.text] for t in tokens]


def _matrix(lattice: Lattice, lines: list[list[_Token]], what: str,
            parsed: dict[str, Value]) -> FuzzyMatrix:
    """The square matrix of the lines' values, shaped by _rows; row r is f"{what} {r + 1}"."""
    n = len(lines)
    return FuzzyMatrix._derived(lattice, tuple(_rows([
        tuple(_parse_values(lattice, tokens, n, f"{what} {r}", tokens[0].line, parsed))
        for r, tokens in enumerate(lines, 1)])))


def parse_automaton(text: str) -> FuzzyAutomaton:
    """Parse a document into a fuzzy automaton, checked here in full and so
    built without its constructor's checks (Record._derived). Raises
    FormatError with a 1-based line (and column where it makes sense) on
    any syntax or validation problem."""
    lines = _tokenize(text)
    parsed: dict[str, Value] = {}  # one value per distinct token text
    blocks: dict = {}  # directive -> what its block read, for all but transitions
    delta: dict[str, FuzzyMatrix] = {}

    i = 0
    while i < len(lines):
        head, *rest = lines[i]
        kw = head.text
        i += 1
        if kw in blocks and kw in ("lattice", "alphabet", "states"):
            raise FormatError(f"duplicate {kw} block", head.line)
        if kw == "lattice":
            blocks[kw] = _parse_lattice(rest, head)
        elif kw == "alphabet":
            if not rest:
                raise FormatError("alphabet needs at least one symbol", head.line)
            blocks[kw] = tuple(t.text for t in rest)
            if bad := bad_symbol(blocks[kw]):
                raise FormatError(bad[1], rest[bad[0]].line, rest[bad[0]].column)
        elif kw == "states":
            blocks[kw] = _positive_int(rest, "states needs one positive integer", head.line)
        elif kw in ("initial", "terminal"):
            if "lattice" not in blocks or "states" not in blocks:
                raise FormatError(f"{kw} block before lattice and states", head.line)
            values = _parse_values(blocks["lattice"], rest, blocks["states"], kw, head.line, parsed)
            if kw in blocks:
                raise FormatError(f"duplicate {kw} block", head.line)
            blocks[kw] = FuzzyVector._derived(blocks["lattice"], tuple(values))
        elif kw == "transitions":
            if "lattice" not in blocks or "alphabet" not in blocks or "states" not in blocks:
                raise FormatError(
                    "transitions block before lattice, alphabet and states", head.line)
            if len(rest) != 1:
                raise FormatError("transitions needs exactly one symbol", head.line)
            symbol = rest[0].text
            if symbol not in blocks["alphabet"]:
                raise FormatError(f"symbol {symbol!r} is not in the alphabet",
                                  rest[0].line, rest[0].column)
            if symbol in delta:
                raise FormatError(f"duplicate transitions block for {symbol!r}", head.line)
            n = blocks["states"]
            rows = lines[i:i + n]
            if len(rows) < n:
                raise FormatError(f"transitions {symbol} needs {_write(n)} rows, document "
                                  f"ends after {len(rows)}", head.line)
            delta[symbol] = _matrix(blocks["lattice"], rows, "transition row", parsed)
            i += n
        else:
            raise FormatError(f"unknown directive {kw!r}", head.line, head.column)

    missing = [kw for kw in ("lattice", "alphabet", "states", "initial", "terminal")
               if kw not in blocks]
    if missing:
        raise FormatError("missing blocks: " + ", ".join(missing))
    for x in blocks["alphabet"]:
        if x not in delta:
            raise FormatError(f"missing transitions block for {x!r}")
    return FuzzyAutomaton._derived(blocks["lattice"], blocks["alphabet"], blocks["initial"],
                                   {x: delta[x] for x in blocks["alphabet"]}, blocks["terminal"])


def _parse_lattice(rest: list[_Token], head: _Token) -> Lattice:
    if not rest:
        raise FormatError("lattice needs a name", head.line)
    name = rest[0].text
    if name == "chain":
        return chain(_positive_int(rest[1:], "chain needs a positive top index", head.line))
    if len(rest) != 1:
        raise FormatError(f"unexpected token after lattice {name!r}", rest[1].line,
                          rest[1].column)
    if name not in NAMED:
        raise FormatError(f"unknown lattice {name!r}", rest[0].line, rest[0].column)
    return NAMED[name]
