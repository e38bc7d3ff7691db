"""Words, finite languages, and the regular-expression dialect.

A letter is a plain string token: usually a single character like ``a``,
but longer names are allowed and render bracketed, like ``[a1]``.  A word
is a tuple of letters; the empty tuple is the empty word and renders as
``~``.  Finite languages are frozensets of words.

Regex dialect: juxtaposition concatenates, ``|`` unions, ``*`` is postfix
star, parentheses group, ``~`` denotes the empty word, ``∅`` (or ``0``)
the empty language, and multi-character letters are written in brackets.

Everything here is immutable and the functions are pure, so values can be
shared freely across threads.
"""

from __future__ import annotations

import re
from typing import Iterable, NamedTuple, Optional

from .errors import InputError
from .frozen import Frozen

Word = tuple[str, ...]
FiniteLanguage = frozenset  # of Word

EPSILON: Word = ()

_SPECIAL = frozenset("()|*[]~∅0")


def letters_of(language: Iterable[Word]) -> frozenset[str]:
    """The set of letters mentioned by any word of the language."""
    return frozenset(a for w in language for a in w)


# ---------------------------------------------------------------------------
# rendering and parsing of words


def render_letter(letter: str) -> str:
    if len(letter) == 1 and letter not in _SPECIAL and not letter.isspace():
        return letter
    return f"[{letter}]"


def render_word(word: Word) -> str:
    if not word:
        return "~"
    return "".join(render_letter(a) for a in word)


def parse_word(text: str) -> Word:
    """Parse one word; ``~`` is the empty word, ``[name]`` a long letter."""
    text = text.strip()
    if text == "~":
        return EPSILON
    if not text:
        raise InputError("empty word text (write ~ for the empty word)")
    letters: list[str] = []
    i = 0
    while i < len(text):
        c = text[i]
        if c == "[":
            j = text.find("]", i + 1)
            if j < 0:
                raise InputError(f"unterminated '[' in word {text!r}")
            if j == i + 1:
                raise InputError(f"empty letter name in word {text!r}")
            letters.append(text[i + 1 : j])
            i = j + 1
        elif c.isspace():
            raise InputError(f"whitespace inside word {text!r}")
        elif c in _SPECIAL:
            raise InputError(
                f"character {c!r} in word {text!r} is reserved; bracket it as [{c}]"
            )
        else:
            letters.append(c)
            i += 1
    return tuple(letters)


def parse_words(text: str) -> FiniteLanguage:
    """Parse a newline-separated word list; ``#`` starts a comment."""
    words = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            words.add(parse_word(line))
        except InputError as exc:
            raise InputError(f"line {lineno}: {exc}") from None
    return frozenset(words)


# ---------------------------------------------------------------------------
# infixes, reduction, mirror


def is_infix(alpha: Word, beta: Word) -> bool:
    """True iff beta = delta + alpha + gamma for some (possibly empty) parts."""
    n = len(alpha)
    return any(beta[i : i + n] == alpha for i in range(len(beta) - n + 1))


def is_strict_infix(alpha: Word, beta: Word) -> bool:
    """An infix occurrence that drops at least one letter of beta."""
    return len(alpha) < len(beta) and is_infix(alpha, beta)


def reduce_finite(language: Iterable[Word]) -> FiniteLanguage:
    """Keep the words having no strict infix inside the language.

    The result defines the same path query: any walk labeled by a word of L
    contains a subwalk labeled by a kept word.

    >>> sorted(reduce_finite({("a",), ("a", "a")}))
    [('a',)]
    """
    words = frozenset(language)
    return frozenset(
        w for w in words if not any(is_strict_infix(u, w) for u in words)
    )


def mirror_finite(language: Iterable[Word]) -> FiniteLanguage:
    return frozenset(w[::-1] for w in language)


# ---------------------------------------------------------------------------
# repeated letters


class RepeatedLetter(NamedTuple):
    """A decomposition word = before + (letter,) + gap + (letter,) + after."""

    letter: str
    before: Word
    gap: Word
    after: Word


def has_repeated_letter(word: Word) -> Optional[RepeatedLetter]:
    """The leftmost pair of equal letters, or None when all are distinct."""
    for i in range(len(word)):
        for j in range(i + 1, len(word)):
            if word[i] == word[j]:
                return RepeatedLetter(
                    word[i], word[:i], word[i + 1 : j], word[j + 1 :]
                )
    return None


# ---------------------------------------------------------------------------
# regular expressions


class Regex(Frozen):
    """Base class for regex syntax-tree nodes.

    Equality, hashing and repr walk the tree with an explicit stack, so
    its depth is not bounded by the interpreter's recursion limit.
    """

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return _regex_shape(self) == _regex_shape(other)

    def __hash__(self):
        return hash(_regex_shape(self))

    def __repr__(self):
        def show(node, kids):
            name = node.__class__.__name__
            if isinstance(node, RLetter):
                return f"{name}(letter={node.letter!r})"
            if isinstance(node, RStar):
                return f"{name}(inner={kids[0]})"
            if isinstance(node, (RConcat, RUnion)):
                joined = kids[0] + "," if len(kids) == 1 else ", ".join(kids)
                return f"{name}(parts=({joined}))"
            return f"{name}()"

        return _regex_fold(self, show)


class REmpty(Regex):
    __slots__ = ()


class REpsilon(Regex):
    __slots__ = ()


class RLetter(Regex):
    __slots__ = _fields = ("letter",)

    def __init__(self, letter: str):
        object.__setattr__(self, "letter", letter)


class RConcat(Regex):
    __slots__ = _fields = ("parts",)

    def __init__(self, parts: tuple[Regex, ...]):
        object.__setattr__(self, "parts", parts)


class RUnion(Regex):
    __slots__ = _fields = ("parts",)

    def __init__(self, parts: tuple[Regex, ...]):
        object.__setattr__(self, "parts", parts)


class RStar(Regex):
    __slots__ = _fields = ("inner",)

    def __init__(self, inner: Regex):
        object.__setattr__(self, "inner", inner)


def regex_children(r: Regex) -> tuple[Regex, ...]:
    """The direct subexpressions of a regex node, in order."""
    if isinstance(r, (RConcat, RUnion)):
        return r.parts
    if isinstance(r, RStar):
        return (r.inner,)
    return ()


def _regex_shape(r: Regex) -> tuple:
    """The nodes in preorder as (class, letter or child count): equal
    exactly for equal trees."""
    shape = []
    todo = [r]
    while todo:
        node = todo.pop()
        children = regex_children(node)
        label = node.letter if isinstance(node, RLetter) else len(children)
        shape.append((node.__class__, label))
        todo.extend(reversed(children))
    return tuple(shape)


def _regex_fold(r: Regex, combine):
    """Fold a tree bottom-up: ``combine(node, values of its children)`` at
    each node, on an explicit stack."""
    values: list = []
    todo = [(r, False)]
    while todo:
        node, ready = todo.pop()
        children = regex_children(node)
        if children and not ready:
            todo.append((node, True))
            todo.extend((child, False) for child in reversed(children))
            continue
        split = len(values) - len(children)
        values[split:] = [combine(node, values[split:])]
    return values[0]


class _Token(NamedTuple):
    kind: str
    value: str
    pos: int


# a bracketed letter name, a run of stars, or any other non-space character
_REGEX_TOKEN = re.compile(r"\[(?P<name>[^\]]*)\]|(?P<stars>\*+)|(?P<char>\S)")
_CHAR_KINDS = {c: c for c in "()|"} | {"~": "epsilon", "∅": "empty", "0": "empty"}


def _tokenize_regex(text: str) -> list[_Token]:
    """Tokens of the dialect; a run of stars is one token at its first."""
    tokens = []
    for match in _REGEX_TOKEN.finditer(text):
        i = match.start()
        kind = match.lastgroup
        if kind == "name":
            if i + 2 == match.end():
                raise InputError(f"regex: empty letter name at position {i}")
            tokens.append(_Token("letter", match["name"], i))
        elif kind == "stars":
            tokens.append(_Token("*", "*", i))
        else:
            c = match["char"]
            if c == "[":  # no ']' follows it
                raise InputError(f"regex: unterminated '[' at position {i}")
            if c == "]":
                raise InputError(f"regex: unmatched ']' at position {i}")
            tokens.append(_Token(_CHAR_KINDS.get(c, "letter"), c, i))
    tokens.append(_Token("end", "", len(text)))
    return tokens


def parse_regex(text: str) -> Regex:
    """Parse the dialect described in the module docstring.

    Parentheses are matched with an explicit stack, so nesting depth is
    not bounded by the interpreter's recursion limit.  ``X**`` parses as
    ``X*``: stars never nest.

    >>> parse_regex("ab|c") == RUnion((RConcat((RLetter("a"), RLetter("b"))), RLetter("c")))
    True
    """
    # one frame per open '(' plus the outermost: the alternatives finished
    # so far and the parts of the concatenation being read
    frames: list[tuple[list[Regex], list[Regex]]] = [([], [])]
    for tok in _tokenize_regex(text):
        alternatives, parts = frames[-1]
        if tok.kind == "letter":
            parts.append(RLetter(tok.value))
        elif tok.kind == "epsilon":
            parts.append(REpsilon())
        elif tok.kind == "empty":
            parts.append(REmpty())
        elif tok.kind == "(":
            frames.append(([], []))
        elif tok.kind == "*" and parts:
            if not isinstance(parts[-1], RStar):
                parts[-1] = RStar(parts[-1])
        else:
            # '|', ')' and the end close the current concatenation, which
            # must not be empty; a '*' reaches here only with nothing to
            # apply to, and is reported the same way
            if not parts:
                raise InputError(
                    f"regex: expected an expression at position {tok.pos}"
                )
            alternatives.append(parts[0] if len(parts) == 1 else RConcat(tuple(parts)))
            parts.clear()
            if tok.kind == "|":
                continue
            frames.pop()
            node = (
                alternatives[0] if len(alternatives) == 1
                else RUnion(tuple(alternatives))
            )
            if tok.kind == "end":
                if frames:
                    raise InputError(f"regex: expected ')' at position {tok.pos}")
                return node
            if not frames:
                raise InputError(f"regex: unexpected ')' at position {tok.pos}")
            frames[-1][1].append(node)
    raise AssertionError("the token list always ends with an end token")


def _regex_precedence(r: Regex) -> int:
    if isinstance(r, RUnion):
        return 0
    if isinstance(r, RConcat):
        return 1
    if isinstance(r, RStar):
        return 2
    return 3


def regex_to_string(r: Regex) -> str:
    """Print a regex; parse_regex(regex_to_string(r)) == r.

    The tree is folded on an explicit stack, so its depth is not bounded
    by the interpreter's recursion limit.
    """

    def show(node, kids):  # kids: (precedence, body) of each child
        level = _regex_precedence(node)
        # a child is bracketed unless it binds tighter than its parent
        pieces = [body if inner > level else f"({body})" for inner, body in kids]
        if isinstance(node, REmpty):
            body = "∅"
        elif isinstance(node, REpsilon):
            body = "~"
        elif isinstance(node, RLetter):
            body = render_letter(node.letter)
        elif isinstance(node, RUnion):
            body = "|".join(pieces)
        elif isinstance(node, RConcat):
            body = "".join(pieces)
        elif isinstance(node, RStar):
            body = pieces[0] + "*"
        else:
            raise TypeError(f"not a regex node: {node!r}")
        return level, body

    return _regex_fold(r, show)[1]
