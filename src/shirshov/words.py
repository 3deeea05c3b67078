"""Alphabets, words over them, admissible orders, and overlap detection.

Words are tuples of indices into an ordered alphabet; the index order is
the generator precedence (first declared generator is smallest).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

LESS = -1
EQUAL = 0
GREATER = 1


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


@dataclass(frozen=True)
class Word:
    """A monomial of the free monoid: a finite sequence of generator indices."""

    alphabet: Alphabet
    letters: tuple[int, ...]

    def __post_init__(self):
        n = len(self.alphabet)
        if any(not 0 <= i < n for i in self.letters):
            raise ValueError("letter index out of range for alphabet")

    @property
    def degree(self) -> int:
        return len(self.letters)

    def __len__(self) -> int:
        return len(self.letters)

    def __mul__(self, other: "Word") -> "Word":
        if self.alphabet != other.alphabet:
            raise AlphabetMismatchError("cannot concatenate over different alphabets")
        return Word(self.alphabet, self.letters + other.letters)

    def __getitem__(self, i) -> "Word":
        if isinstance(i, slice):
            return Word(self.alphabet, self.letters[i])
        return Word(self.alphabet, (self.letters[i],))

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


def deglex_key(u: Word) -> tuple[int, tuple[int, ...]]:
    """Sort key realizing the deg-lex order (degree first, then precedence-lex)."""
    return (len(u.letters), u.letters)


def _check_same(u: Word, v: Word) -> None:
    if u.alphabet != v.alphabet:
        raise AlphabetMismatchError("words over different alphabets")


def cmp_deglex(u: Word, v: Word) -> int:
    """Compare by degree, then left-to-right by generator precedence."""
    _check_same(u, v)
    ku, kv = deglex_key(u), deglex_key(v)
    return LESS if ku < kv else GREATER if ku > kv else EQUAL


def cmp_lex_prefix_greater(u: Word, v: Word) -> int:
    """Pure lex order in which a proper prefix is GREATER than its extensions."""
    _check_same(u, v)
    for a, b in zip(u.letters, v.letters):
        if a != b:
            return LESS if a < b else GREATER
    if len(u) == len(v):
        return EQUAL
    # the shorter word is a proper prefix and compares greater
    return GREATER if len(u) < len(v) else LESS


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
