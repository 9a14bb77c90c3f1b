"""Star-words: finite words in noncommuting indeterminates x_i and their adjoints.

The canonical text form is space-separated tokens like ``x1 x2* x1``.
A letter is a pair (index, star); a word is a nonempty tuple of letters,
and a StarWord is that tuple itself, with its text.
Power words are the unitary reductions: adjacent letters with equal index
merge into signed exponents and zero exponents cancel.  merge_powers is
the one stack-merge reducer behind every normal form in the package,
iter_sequences the one lazy walker behind every bounded word scan (it
follows a graph of the items allowed after each prefix, and in its
necklace mode yields only least rotations), and parse_int the one
reader of integer text in words, group tokens and scenario keys.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable, Iterator, Mapping, NamedTuple, TypeVar


class WordSyntaxError(ValueError):
    """Raised on malformed word text; carries the byte offset of the fault."""

    def __init__(self, message: str, offset: int) -> None:
        super().__init__(f"{message} (at byte {offset})")
        self.offset = offset


class EmptyWordError(WordSyntaxError):
    def __init__(self) -> None:
        super().__init__("empty word", 0)


class Letter(NamedTuple):
    index: int
    star: bool

    def adjoint(self) -> "Letter":
        return Letter(self.index, not self.star)

    def text(self) -> str:
        return f"x{self.index}*" if self.star else f"x{self.index}"


LetterTuple = tuple[Letter, ...]
PowerFactor = tuple[int, int]  # (index, signed exponent), exponent != 0
PowerWord = tuple[PowerFactor, ...]
T = TypeVar("T")


class StarWord(tuple):
    """A nonempty word over the letters x_i, x_i*: the tuple of its
    letters, with its text."""

    __slots__ = ()

    def __new__(cls, letters: Iterable[Letter]) -> "StarWord":
        word = tuple.__new__(cls, letters)
        if not word:
            raise EmptyWordError()
        return word

    def __repr__(self) -> str:
        return f"StarWord({tuple(self)!r})"

    def text(self) -> str:
        return " ".join(l.text() for l in self)

    def __str__(self) -> str:
        return self.text()


def adjoint_letters(letters: LetterTuple) -> LetterTuple:
    """The adjoint reversal of a word: (l1 ... ln)* = ln* ... l1*."""
    return tuple(l.adjoint() for l in reversed(letters))


def parse_int(text: str, *, signed: bool) -> int:
    """The integer spelled by text in ASCII decimal: [+-]?[0-9]+ when
    signed, [0-9]+ otherwise; anything else is a ValueError.

    int() alone would also read surrounding spaces, underscores between
    digits and non-ASCII digits ("1_0" as 10, " 1" as 1), turning a
    mistyped key or token into a different number.
    """
    digits = text[1:] if signed and text[:1] in ("+", "-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def parse_word(text: str) -> StarWord:
    """Parse canonical word text; rejects empty and malformed input."""
    stripped = text.strip()
    if not stripped:
        raise EmptyWordError()
    letters: list[Letter] = []
    pos = 0
    raw = text
    for token in stripped.split():
        offset = raw.index(token, pos)
        pos = offset + len(token)
        body = token
        star = body.endswith("*")
        if star:
            body = body[:-1]
        if not body.startswith("x"):
            raise WordSyntaxError(f"expected 'x<INT>', got {token!r}", offset)
        try:
            index = parse_int(body[1:], signed=False)
        except ValueError:
            raise WordSyntaxError(f"bad variable index in {token!r}", offset) from None
        letters.append(Letter(index, star))
    return StarWord(letters)


def single_variable_word(stars: Iterable[bool], index: int = 1) -> StarWord:
    """Build the word x_index^(pattern) from a star pattern."""
    return StarWord(Letter(index, bool(s)) for s in stars)


def merge_powers(
    syllables: Iterable[tuple[Hashable, int]],
    orders: Mapping[Hashable, int] | None = None,
) -> tuple[tuple[Hashable, int], ...]:
    """Stack-merge (key, exponent) syllables into their reduced form.

    Adjacent syllables with equal keys add their exponents, an exponent
    is folded modulo orders[key] when that key has a finite order (keys
    missing from orders have infinite order), and zero exponents vanish,
    which lets their neighbours merge in turn.  The result may be empty
    (the unit).
    """
    order_of = (orders or {}).get
    stack: list[tuple[Hashable, int]] = []
    for key, exp in syllables:
        if stack and stack[-1][0] == key:
            exp += stack.pop()[1]
        order = order_of(key)
        if order is not None:
            exp %= order
        if exp:
            stack.append((key, exp))
    return tuple(stack)


def power_word_to_star_word(pw: PowerWord) -> StarWord:
    return StarWord(Letter(i, exp < 0) for i, exp in pw for _ in range(abs(exp)))


def class_blocks(letters: LetterTuple, class_of: Mapping[int, int]) -> list[LetterTuple]:
    """Split a letter tuple into maximal runs belonging to one class."""
    blocks: list[LetterTuple] = []
    start = 0
    for pos in range(1, len(letters)):
        if class_of[letters[pos].index] != class_of[letters[pos - 1].index]:
            blocks.append(letters[start:pos])
            start = pos
    blocks.append(letters[start:])
    return blocks


def iter_letters(indices: Iterable[int]) -> list[Letter]:
    """All letters over the given variable indices, in canonical order."""
    out: list[Letter] = []
    for i in sorted(indices):
        out.append(Letter(i, False))
        out.append(Letter(i, True))
    return out


def iter_sequences(
    alphabet: Iterable[T],
    length: int,
    graph: Mapping[T, Mapping] | None = None,
    step: Callable | None = None,
    necklaces: bool = False,
) -> Iterator[tuple[T, ...]]:
    """Every length-tuple over alphabet, lazily, in lexicographic order of
    alphabet positions; lengths <= 0 yield nothing.

    With graph given, the walk follows it from its root node: a node maps
    each item allowed next to the node after it, so after a prefix the
    walk offers only the items its node holds, and no tuple through a
    missing item is built or yielded; the node after the last item is
    not read.  Without graph, one node maps every item back to itself.
    freeness.scan_graphs builds the graphs of the words a scan keeps.
    With step, the walk offers only an item whose step(state, item, items
    left after it), the state after it (None before the first item), is
    not None (freeness.height_step; groups.is_free_collection's step
    refuses the index just before).

    With necklaces, only the tuples least among their rotations
    (necklaces), by the Fredricksen-Kessler-Maiorana walk (Ruskey, Savage
    and Wang, J. Algorithms 13, 1992): every prefix a_1..a_t of a necklace
    is a prenecklace, a prefix of some necklace.  With p its period (the
    length of its longest Lyndon prefix), the next item a_(t+1) is no
    earlier than a_(t+1-p); an equal one keeps the period and a later one
    makes it t+1.  A prenecklace of length n is a necklace exactly when p
    divides n.  The graph and the step hold as in the plain walk.
    """
    items = tuple(alphabet)
    if graph is None:
        graph = {}
        graph.update((item, graph) for item in items)
    tails = {item: items[r:] for r, item in enumerate(items)}

    def extend(prefix: tuple[T, ...], node, left: int, period: int, tail, state):
        # in necklace mode: the prefix's period p, then the items from a_(t+1-p)
        if necklaces and prefix:
            period = period if prefix[-1] is tail[0] else len(prefix)
            tail = tails[prefix[-period]]
        for item in tail:
            after = node.get(item)
            if after is None:
                continue
            if step and (stepped := step(state, item, left)) is None:
                continue
            if left:
                yield from extend(
                    prefix + (item,), after, left - 1, period, tail, step and stepped
                )
            elif not necklaces or item is not tail[0] or length % period == 0:
                yield prefix + (item,)

    if length > 0:
        yield from extend((), graph, length - 1, 1, items, None)


def text_ordered_letters(indices: Iterable[int]) -> list[Letter]:
    """All letters over the given variable indices, sorted by their text:
    the order iter_words walks them in."""
    return sorted(iter_letters(indices), key=Letter.text)


def iter_words(
    indices: Iterable[int],
    length: int,
    graph: Mapping[Letter, Mapping] | None = None,
    necklaces: bool = False,
    step: Callable | None = None,
) -> Iterator[StarWord]:
    """All words of exactly the given length, sorted by canonical text;
    with graph and step, those whose letters iter_sequences follows
    through both; with necklaces, only those least among their rotations
    in that order.

    Walking the letters in text order gives exactly the text order of
    the words, indices >= 10 included: when one letter's text is a
    prefix of another's (x1 of x1* or x10), the shorter letter is
    followed by a space, which sorts before '*' and before digits.
    """
    letters = text_ordered_letters(indices)
    return map(StarWord, iter_sequences(letters, length, graph, step, necklaces))


def iter_star_patterns(length: int) -> Iterator[tuple[bool, ...]]:
    """All star patterns of one variable with the given length, text order."""
    return iter_sequences((False, True), length)
