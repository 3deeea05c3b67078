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
from math import gcd, lcm
from numbers import Rational
from types import MappingProxyType
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


def _numerator(c) -> tuple:
    """(field, numerator, denominator) of a coefficient; an int lies in Q."""
    if isinstance(c, _PrimeFieldElement):
        return type(c), c.value, 1
    if isinstance(c, Rational):  # numerator and denominator in lowest terms
        return Fraction, c.numerator, c.denominator
    raise TypeError(f"coefficient {c!r} is neither a Fraction nor a prime_field element")


def _join_fields(a, b):
    """The field terms of fields a and b combine in; None, the zero polynomial's, joins any."""
    if a is not None and b is not None and a is not b:
        raise TypeError(f"cannot mix {a.__name__} with {b.__name__} coefficients")
    return a or b


Scalar = Union[Fraction, int, object]


class NcPolynomial:
    """A finite sum of nonzero terms c·w, held in integer form.

    ``ints`` maps (len(w), letters of w) to a numerator, in descending deg-lex
    order, over one denominator ``den`` in lowest terms; over GF(p) the
    numerators are residues mod p and ``den`` is 1.  ``field`` is Fraction
    for Q, a :func:`prime_field` class, or None for the zero polynomial.
    """

    __slots__ = ("alphabet", "field", "ints", "den")

    def __init__(self, alphabet: Alphabet, terms: Mapping[Word, Scalar] = ()):
        field, parts = None, {}
        for w, c in dict(terms).items():
            f, n, d = _numerator(c)
            if n:
                field = _join_fields(field, f)
                parts[deglex_key(w)] = n, d
        den = lcm(*(d for _, d in parts.values()))
        self.alphabet, self.field, self.den = alphabet, field, den
        self.ints = {k: n * (den // d) for k, (n, d) in sorted(parts.items(), reverse=True)}

    @staticmethod
    def _from_ints(alphabet: Alphabet, field, ints: dict, den: int = 1) -> "NcPolynomial":
        """The polynomial of numerators ints over den, keyed and ordered as ``ints``
        is and taken as they are; only den is brought to lowest terms."""
        if den != 1:
            g = gcd(den, *ints.values())
            if g != 1:
                ints = {k: n // g for k, n in ints.items()}
                den //= g
        f = object.__new__(NcPolynomial)
        f.alphabet, f.field, f.ints, f.den = alphabet, field if ints else None, ints, den
        return f

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

    @property
    def terms(self) -> Mapping[Word, Scalar]:
        """Word -> coefficient, read-only and in descending deg-lex order, built on each read."""
        A = self.alphabet
        return MappingProxyType({_trusted_word(A, w): self._coefficient(n) for (_, w), n in self.ints.items()})

    def _coefficient(self, n: int) -> Scalar:
        return Fraction(n, self.den) if self.field is Fraction else self.field(n)

    def is_zero(self) -> bool:
        return not self.ints

    @property
    def degree(self) -> int:
        if not self.ints:
            raise ZeroPolynomialError("zero polynomial has no degree")
        return next(iter(self.ints))[0]

    def leading(self) -> tuple[Word, Scalar]:
        """The deg-lex-maximal word of the support and its coefficient."""
        if not self.ints:
            raise ZeroPolynomialError("zero polynomial has no leading term")
        (_, w), n = next(iter(self.ints.items()))
        return _trusted_word(self.alphabet, w), self._coefficient(n)

    def coefficient(self, w: Word) -> Scalar:
        n = self.ints.get(deglex_key(w))
        return 0 if n is None else self._coefficient(n)

    # -- arithmetic ---------------------------------------------------

    def _check(self, other: "NcPolynomial"):
        """The field both polynomials' terms lie in."""
        if self.alphabet != other.alphabet:
            raise AlphabetMismatchError("polynomials over different alphabets")
        return _join_fields(self.field, other.field)

    def __add__(self, other: "NcPolynomial") -> "NcPolynomial":
        field = self._check(other)
        den = lcm(self.den, other.den)
        a, b = den // self.den, den // other.den
        ints = {k: n * a for k, n in self.ints.items()}
        for k, n in other.ints.items():
            ints[k] = ints.get(k, 0) + n * b
        return NcPolynomial._from_ints(self.alphabet, field, _ordered(ints, field), den)

    def __sub__(self, other: "NcPolynomial") -> "NcPolynomial":
        return self + (-other)

    def __neg__(self) -> "NcPolynomial":
        ints = _ordered({k: -n for k, n in self.ints.items()}, self.field)
        return NcPolynomial._from_ints(self.alphabet, self.field, ints, self.den)

    def __mul__(self, other) -> "NcPolynomial":
        if not isinstance(other, NcPolynomial):
            return self.scale(other)
        field = self._check(other)
        ints: dict = {}
        for (i, u), a in self.ints.items():
            for (j, v), b in other.ints.items():
                k = (i + j, u + v)
                ints[k] = ints.get(k, 0) + a * b
        return NcPolynomial._from_ints(self.alphabet, field, _ordered(ints, field), self.den * other.den)

    def scale(self, c: Scalar) -> "NcPolynomial":
        """c times self, for c in self's field (an int lies in Q)."""
        field, num, den = _numerator(c)
        field = _join_fields(self.field, field)
        ints = _ordered({k: n * num for k, n in self.ints.items()}, field)
        return NcPolynomial._from_ints(self.alphabet, field, ints, self.den * den)

    __rmul__ = scale

    def monic(self) -> "NcPolynomial":
        """Divide by the leading coefficient, on ints: over Q the numerators, signed
        to make the lead positive, go over the lead's magnitude, and lowest terms
        leave their primitive part; over GF(p) the residues times the lead's inverse."""
        if not self.ints:
            raise ZeroPolynomialError("zero polynomial has no leading term")
        lc = next(iter(self.ints.values()))
        if lc == self.den:
            return self
        if self.field is Fraction:
            k, den = (1, lc) if lc > 0 else (-1, -lc)
        else:
            k, den = pow(lc, -1, self.field.modulus), 1
        ints = _ordered({key: n * k for key, n in self.ints.items()}, self.field)
        return NcPolynomial._from_ints(self.alphabet, self.field, ints, den)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, NcPolynomial)
            and self.alphabet == other.alphabet
            and self.field is other.field
            and self.den == other.den
            and self.ints == other.ints
        )

    def __hash__(self):
        return hash((self.alphabet, self.den, tuple(self.ints.items())))

    def __str__(self) -> str:
        return render_poly(self)

    def __repr__(self) -> str:
        return f"NcPolynomial({render_poly(self)})"


def _ordered(ints: dict, field) -> dict:
    """The nonzero numerators of ints, as residues mod p over GF(p), in descending key order."""
    p = getattr(field, "modulus", 0)
    if p:
        ints = {k: n % p for k, n in ints.items()}
    return {k: n for k, n in sorted(ints.items(), reverse=True) if n}


def mul_bounded(a: Word, f: NcPolynomial, b: Word) -> NcPolynomial:
    """a·f·b; by admissibility the leading word is a·leading(f)·b."""
    if a.alphabet != f.alphabet or b.alphabet != f.alphabet:
        raise AlphabetMismatchError("mismatched alphabets in bounded product")
    n, x, y = len(a) + len(b), a.letters, b.letters
    ints = {(i + n, x + u + y): c for (i, u), c in f.ints.items()}
    return NcPolynomial._from_ints(f.alphabet, f.field, ints, f.den)


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
    out = ""
    for (_, w), n in f.ints.items():
        neg = f.field is Fraction and n < 0  # over GF(p) no coefficient is negative
        c = f._coefficient(-n if neg else n)
        names = "*".join(f.alphabet.symbols[x] for x in w)
        body = str(c) if not w else names if c == 1 else f"{c}*{names}"
        out += f" {'-' if neg else '+'} {body}"
    if not out:
        return "0"
    return out[3:] if out.startswith(" +") else "-" + out[3:]
