"""Alphabets, words over them, admissible orders, and overlap detection.

Words are tuples of indices into an ordered alphabet; the index order is
the generator precedence (first declared generator is smallest).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable


class AlphabetMismatchError(ValueError):
    """Two words over different alphabets were combined or compared."""


@dataclass(frozen=True)
class Alphabet:
    """Ordered generator names; declaration order is ascending precedence."""

    symbols: tuple[str, ...]

    def __init__(self, symbols: Iterable[str]):
        object.__setattr__(self, "symbols", tuple(symbols))
        if not self.symbols:
            raise ValueError("alphabet must be nonempty")
        if len(set(self.symbols)) != len(self.symbols):
            raise ValueError("alphabet symbols must be distinct")

    def __len__(self) -> int:
        return len(self.symbols)

    def index(self, name: str) -> int:
        try:
            return self.symbols.index(name)
        except ValueError:
            raise KeyError(f"unknown generator {name!r}") from None

    def word(self, text: str = "") -> "Word":
        """Build a word from whitespace-separated generator names.

        When every symbol is a single character, an unseparated string like
        ``"heh"`` is accepted too.  ``"1"`` and ``""`` denote the empty word.
        """
        text = text.strip()
        if text in ("", "1"):
            return Word(self, ())
        parts = text.split()
        if len(parts) == 1 and parts[0] not in self.symbols and all(
            len(s) == 1 for s in self.symbols
        ):
            parts = list(parts[0])
        return Word(self, tuple(self.index(p) for p in parts))

    def empty(self) -> "Word":
        return Word(self, ())


@dataclass(frozen=True, slots=True)
class Word:
    """A monomial of the free monoid: a finite sequence of generator indices.

    ``Word(alphabet, letters)`` stores the letters as a tuple and checks that
    each is an int index into the alphabet.  Words the engine builds from
    letters it made over the alphabet go through ``_trusted_word`` instead.
    Equal words have equal letters, so a word hashes by its letters alone.
    """

    alphabet: Alphabet
    letters: tuple[int, ...]

    def __init__(self, alphabet: Alphabet, letters: Iterable[int]):
        letters = tuple(letters)
        n = len(alphabet)
        for i in letters:
            if not isinstance(i, int) or isinstance(i, bool):
                raise TypeError(f"letter {i!r} is not an int index")
            if not 0 <= i < n:
                raise ValueError("letter index out of range for alphabet")
        _set_alphabet(self, alphabet)
        _set_letters(self, letters)

    def __hash__(self) -> int:
        return hash(self.letters)

    def __len__(self) -> int:
        return len(self.letters)

    def __mul__(self, other: "Word") -> "Word":
        if self.alphabet != other.alphabet:
            raise AlphabetMismatchError("cannot concatenate over different alphabets")
        return _trusted_word(self.alphabet, self.letters + other.letters)

    def __getitem__(self, i) -> "Word":
        if isinstance(i, slice):
            return _trusted_word(self.alphabet, self.letters[i])
        return _trusted_word(self.alphabet, (self.letters[i],))

    def names(self) -> tuple[str, ...]:
        return tuple(self.alphabet.symbols[i] for i in self.letters)

    def __str__(self) -> str:
        if not self.letters:
            return "1"
        names = self.names()
        if all(len(s) == 1 for s in self.alphabet.symbols):
            return "".join(names)
        return "·".join(names)

    def __repr__(self) -> str:
        return f"Word({self})"


# the slot setters, which a frozen Word's __setattr__ does not reach
_set_alphabet = Word.alphabet.__set__
_set_letters = Word.letters.__set__


def _trusted_word(alphabet: Alphabet, letters: tuple[int, ...]) -> Word:
    """A Word with no letter check, for a letter tuple the engine made over alphabet:
    automaton moves over its letters, or slices and concatenations of checked words."""
    w = object.__new__(Word)
    _set_alphabet(w, alphabet)
    _set_letters(w, letters)
    return w


def deglex_key(u: Word) -> tuple[int, tuple[int, ...]]:
    """Sort key realizing the deg-lex order (degree first, then precedence-lex)."""
    return (len(u.letters), u.letters)


def _check_same(u: Word, v: Word) -> None:
    if u.alphabet != v.alphabet:
        raise AlphabetMismatchError("words over different alphabets")


@dataclass(frozen=True)
class Overlap:
    """A nontrivial lcm of two leading words, on their letter tuples.

    intersection: u·b = a·v = w with a, b nonempty.
    inclusion:    u = a·v·b = w.
    """

    kind: str  # "intersection" | "inclusion"
    a: tuple[int, ...]
    b: tuple[int, ...]
    w: tuple[int, ...]


def _intersections(u: tuple[int, ...], v: tuple[int, ...]) -> list[Overlap]:
    """All proper suffix-of-u / prefix-of-v overlaps of nonempty u, v, by |b| ascending."""
    out = []
    # k = overlap length; larger k means shorter b
    for k in range(min(len(u), len(v)) - 1, 0, -1):
        if u[len(u) - k:] == v[:k]:
            b = v[k:]
            out.append(Overlap("intersection", u[: len(u) - k], b, u + b))
    return out


def _inclusions(u: tuple[int, ...], v: tuple[int, ...]) -> list[Overlap]:
    """All factorizations u = a·v·b of nonempty u, v with a·b nonempty, by |a| ascending."""
    out = []
    for start in range(len(u) - len(v) + 1):
        if u[start : start + len(v)] == v:
            a = u[:start]
            b = u[start + len(v):]
            if a or b:
                out.append(Overlap("inclusion", a, b, u))
    return out


def _letters(u: Word, v: Word) -> tuple[tuple[int, ...], tuple[int, ...]]:
    _check_same(u, v)
    if not u.letters or not v.letters:
        raise ValueError("overlap detection needs nonempty words")
    return u.letters, v.letters


def find_intersections(u: Word, v: Word) -> list[Overlap]:
    """``_intersections`` of two nonempty words over one alphabet."""
    return _intersections(*_letters(u, v))


def find_inclusions(u: Word, v: Word) -> list[Overlap]:
    """``_inclusions`` of two nonempty words over one alphabet."""
    return _inclusions(*_letters(u, v))
