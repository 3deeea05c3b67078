"""Exact-coefficient noncommutative polynomials and Lie bracket terms.

Coefficients are exact field elements: ``fractions.Fraction`` by default,
or elements of a prime field built with :func:`prime_field`.  Floating
point is rejected everywhere.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from numbers import Rational
from typing import Mapping, Union

from .words import Alphabet, AlphabetMismatchError, Word, _trusted_word, deglex_key


class ZeroPolynomialError(ValueError):
    """Leading-term access on the zero polynomial."""


class PolyParseError(ValueError):
    """Malformed polynomial text."""


class _PrimeFieldElement:
    """Base of the element classes :func:`prime_field` builds."""

    __slots__ = ()


@lru_cache(maxsize=None)
def prime_field(p: int):
    """Return an element class for GF(p); optional backend to Fraction."""
    if p < 2 or any(p % q == 0 for q in range(2, int(p ** 0.5) + 1)):
        raise ValueError(f"{p} is not prime")

    class Fp(_PrimeFieldElement):
        __slots__ = ("value",)
        modulus = p

        def __init__(self, value):
            self.value = int(value) % p

        def __add__(self, other):
            return Fp(self.value + _fp_val(other, p))

        __radd__ = __add__

        def __sub__(self, other):
            return Fp(self.value - _fp_val(other, p))

        def __rsub__(self, other):
            return Fp(_fp_val(other, p) - self.value)

        def __mul__(self, other):
            return Fp(self.value * _fp_val(other, p))

        __rmul__ = __mul__

        def __truediv__(self, other):
            o = _fp_val(other, p)
            if o % p == 0:
                raise ZeroDivisionError("division by zero in GF(p)")
            return Fp(self.value * pow(o, -1, p))

        def __rtruediv__(self, other):
            return Fp(_fp_val(other, p)) / self

        def __neg__(self):
            return Fp(-self.value)

        def __eq__(self, other):
            if isinstance(other, Fp):
                return self.value == other.value
            if isinstance(other, int):
                return self.value == other % p
            return NotImplemented

        def __hash__(self):
            return hash((p, self.value))

        def __bool__(self):
            return self.value != 0

        def __repr__(self):
            return f"{self.value}"

    Fp.__name__ = f"GF{p}"
    return Fp


def _fp_val(x, p: int) -> int:
    if isinstance(x, int):
        return x
    if hasattr(x, "modulus") and x.modulus == p:
        return x.value
    raise TypeError(f"cannot mix {x!r} with GF({p}) elements")


def coefficient_field(c):
    """The field c lies in: ``Fraction`` for Q, else its :func:`prime_field` class."""
    if isinstance(c, Fraction):
        return Fraction
    if isinstance(c, _PrimeFieldElement):
        return type(c)
    raise TypeError(f"coefficient {c!r} is neither a Fraction nor a prime_field element")


def _coerce_scalar(c):
    if isinstance(c, float):
        raise TypeError("floating point coefficients are forbidden")
    if isinstance(c, Rational) and not isinstance(c, Fraction):
        return Fraction(c)
    return c


Scalar = Union[Fraction, int, object]


class NcPolynomial:
    """Finite map Word -> nonzero scalar, kept in descending deg-lex order."""

    __slots__ = ("alphabet", "terms")

    def __init__(self, alphabet: Alphabet, terms: Mapping[Word, Scalar] = ()):
        cleaned = {}
        for w, c in dict(terms).items():
            c = _coerce_scalar(c)
            if c != 0:
                cleaned[w] = c
        ordered = sorted(cleaned, key=deglex_key, reverse=True)
        self.alphabet = alphabet
        self.terms = {w: cleaned[w] for w in ordered}

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(alphabet: Alphabet) -> "NcPolynomial":
        return NcPolynomial(alphabet, {})

    @staticmethod
    def monomial(word: Word, coeff: Scalar = 1) -> "NcPolynomial":
        return NcPolynomial(word.alphabet, {word: coeff})

    @staticmethod
    def one(alphabet: Alphabet) -> "NcPolynomial":
        return NcPolynomial(alphabet, {alphabet.empty(): 1})

    # -- queries ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    @property
    def degree(self) -> int:
        if not self.terms:
            raise ZeroPolynomialError("zero polynomial has no degree")
        return len(self.leading()[0])

    def leading(self) -> tuple[Word, Scalar]:
        """The deg-lex-maximal word of the support and its coefficient."""
        if not self.terms:
            raise ZeroPolynomialError("zero polynomial has no leading term")
        return next(iter(self.terms.items()))

    def coefficient(self, w: Word) -> Scalar:
        return self.terms.get(w, 0)

    # -- arithmetic ---------------------------------------------------

    def _check(self, other: "NcPolynomial") -> None:
        if self.alphabet != other.alphabet:
            raise AlphabetMismatchError("polynomials over different alphabets")
        if self.terms and other.terms:
            c, d = self.leading()[1], other.leading()[1]
            if type(c) is not type(d):
                raise TypeError(f"cannot mix {type(c).__name__} with {type(d).__name__} coefficients")

    def __add__(self, other: "NcPolynomial") -> "NcPolynomial":
        self._check(other)
        terms = dict(self.terms)
        for w, c in other.terms.items():
            terms[w] = terms.get(w, 0) + c
        return NcPolynomial(self.alphabet, terms)

    def __sub__(self, other: "NcPolynomial") -> "NcPolynomial":
        return self + (-other)

    def __neg__(self) -> "NcPolynomial":
        return NcPolynomial(self.alphabet, {w: -c for w, c in self.terms.items()})

    def __mul__(self, other) -> "NcPolynomial":
        if not isinstance(other, NcPolynomial):
            return self.scale(other)
        self._check(other)
        terms: dict[Word, Scalar] = {}
        for u, a in self.terms.items():
            for v, b in other.terms.items():
                w = u * v
                terms[w] = terms.get(w, 0) + a * b
        return NcPolynomial(self.alphabet, terms)

    def __rmul__(self, other) -> "NcPolynomial":
        return self.scale(other)

    def scale(self, c: Scalar) -> "NcPolynomial":
        c = _coerce_scalar(c)
        return NcPolynomial(self.alphabet, {w: a * c for w, a in self.terms.items()})

    def monic(self) -> "NcPolynomial":
        """Divide by the leading coefficient."""
        _, lc = self.leading()
        if lc == 1:
            return self
        return NcPolynomial(self.alphabet, {w: c / lc for w, c in self.terms.items()})

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, NcPolynomial)
            and self.alphabet == other.alphabet
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.alphabet, tuple(self.terms.items())))

    def __str__(self) -> str:
        return render_poly(self)

    def __repr__(self) -> str:
        return f"NcPolynomial({render_poly(self)})"


def mul_bounded(a: Word, f: NcPolynomial, b: Word) -> NcPolynomial:
    """a·f·b; by admissibility the leading word is a·leading(f)·b."""
    if a.alphabet != f.alphabet or b.alphabet != f.alphabet:
        raise AlphabetMismatchError("mismatched alphabets in bounded product")
    return NcPolynomial(f.alphabet, {a * w * b: c for w, c in f.terms.items()})


# ---------------------------------------------------------------------------
# Lie bracket terms


@dataclass(frozen=True)
class LieTerm:
    """A binary bracketing tree over generators."""

    alphabet: Alphabet
    gen: int | None = None
    left: "LieTerm | None" = None
    right: "LieTerm | None" = None

    @staticmethod
    def leaf(alphabet: Alphabet, gen: int) -> "LieTerm":
        if not 0 <= gen < len(alphabet):
            raise ValueError("generator index out of range")
        return LieTerm(alphabet, gen=gen)

    @staticmethod
    def bracket(left: "LieTerm", right: "LieTerm") -> "LieTerm":
        if left.alphabet != right.alphabet:
            raise AlphabetMismatchError("bracket over different alphabets")
        return LieTerm(left.alphabet, left=left, right=right)

    @property
    def degree(self) -> int:
        if self.gen is not None:
            return 1
        return self.left.degree + self.right.degree

    def __str__(self) -> str:
        if self.gen is not None:
            return self.alphabet.symbols[self.gen]
        return f"[{self.left},{self.right}]"

    def __repr__(self) -> str:
        return f"LieTerm({self})"


def expand_bracket(t) -> NcPolynomial:
    """Expand a LieTerm (or a {LieTerm: scalar} combination) via [u,v] = uv - vu.

    Each term expands on letter tuples with int signs and is scaled once by
    its coefficient, so the result lies in the coefficients' field.
    """
    if isinstance(t, LieTerm):
        t = {t: 1}
    if not t:
        raise ValueError("cannot expand an empty combination (alphabet unknown)")
    alphabet = next(iter(t)).alphabet
    terms: dict = {}
    for term, c in t.items():
        if term.alphabet != alphabet:
            raise AlphabetMismatchError("bracket terms over different alphabets")
        for w, n in _expand_one(term).items():
            terms[w] = terms.get(w, 0) + n * c
    return NcPolynomial(alphabet, {_trusted_word(alphabet, w): c for w, c in terms.items()})


def _expand_one(t: LieTerm) -> dict[tuple[int, ...], int]:
    if t.gen is not None:
        return {(t.gen,): 1}
    ri = _expand_one(t.right).items()
    out: dict[tuple[int, ...], int] = {}
    for u, a in _expand_one(t.left).items():
        for v, b in ri:
            out[u + v] = out.get(u + v, 0) + a * b
            out[v + u] = out.get(v + u, 0) - a * b
    return out


# ---------------------------------------------------------------------------
# Text syntax: terms joined by +/-, optional scalar prefix with *

# a generator name as relations spell it; presentations check their generators by it
NAME = re.compile(r"[A-Za-z_][A-Za-z_0-9]*'*")
_TOKEN = re.compile(rf"\s*(?:(?P<num>\d+(?:/\d+)?)|(?P<name>{NAME.pattern})|(?P<op>[-+*]))")


def _tokenize(text: str) -> list[tuple[str, str]]:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip():
                raise PolyParseError(f"unexpected character at {text[pos:]!r}")
            break
        pos = m.end()
        for kind in ("num", "name", "op"):
            if m.group(kind) is not None:
                out.append((kind, m.group(kind)))
                break
    return out


def parse_poly(text: str, alphabet: Alphabet, field=Fraction) -> NcPolynomial:
    """Parse e.g. ``h*e - e*h - 2*e`` relative to a declared alphabet."""
    tokens = _tokenize(text)
    if not tokens:
        raise PolyParseError("empty polynomial")
    terms: dict[Word, Scalar] = {}
    sign = 1
    i = 0
    # optional leading sign
    if tokens[0] == ("op", "-"):
        sign = -1
        i = 1
    elif tokens[0] == ("op", "+"):
        i = 1
    if i == len(tokens):
        raise PolyParseError("dangling sign")
    while i < len(tokens):
        coeff = field(1) * sign
        letters: list[int] = []
        saw_factor = False
        expect_factor = True
        while i < len(tokens):
            kind, val = tokens[i]
            if kind == "op" and val in "+-":
                break
            if kind == "op" and val == "*":
                if expect_factor:
                    raise PolyParseError("misplaced '*'")
                expect_factor = True
                i += 1
                continue
            if not expect_factor:
                raise PolyParseError(f"missing '+', '-' or '*' before {val!r}")
            if kind == "num":
                if "/" in val:
                    num, den = (field(int(part)) for part in val.split("/"))
                    if den == 0:
                        raise PolyParseError(f"zero denominator in {val!r}")
                    coeff = coeff * num / den
                else:
                    coeff = coeff * field(int(val))
            else:
                letters.append(alphabet.index(val))
            saw_factor = True
            expect_factor = False
            i += 1
        if not saw_factor:
            raise PolyParseError("empty term")
        if expect_factor:
            raise PolyParseError("dangling '*'")
        w = Word(alphabet, tuple(letters))
        terms[w] = terms.get(w, 0) + coeff
        if i < len(tokens):
            sign = 1 if tokens[i][1] == "+" else -1
            i += 1
            if i == len(tokens):
                raise PolyParseError("dangling sign")
    return NcPolynomial(alphabet, terms)


def render_poly(f: NcPolynomial) -> str:
    """Inverse of parse_poly; canonical descending term order."""
    if f.is_zero():
        return "0"
    pieces = []
    for w, c in f.terms.items():
        neg = _is_negative(c)
        mag = -c if neg else c
        if len(w) == 0:
            body = str(mag)
        elif mag == 1:
            body = "*".join(w.names())
        else:
            body = str(mag) + "*" + "*".join(w.names())
        pieces.append(("-" if neg else "+", body))
    first_sign, first_body = pieces[0]
    out = ("-" if first_sign == "-" else "") + first_body
    for s, body in pieces[1:]:
        out += f" {s} {body}"
    return out


def _is_negative(c) -> bool:
    try:
        return c < 0
    except TypeError:
        return False
