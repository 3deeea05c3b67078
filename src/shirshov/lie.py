"""Lyndon-Shirshov word machinery, PBW bases, and Lie relation checking.

The convention throughout: an ALSW is a word strictly lex-greater than all
of its proper cyclic rotations.  Factor sequences are ordered by the lex
order in which a proper prefix compares greater than its extensions; the
uniqueness of the resulting factorization is validated by tests rather
than assumed.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from .complete import CompletionResult, is_gs_basis
from .ncpoly import (
    LieTerm,
    NcPolynomial,
    Scalar,
    expand_bracket,
)
from .rewrite import RuleSet, _live_moves
from .words import Alphabet, Word, _trusted_word, deglex_key


class NotAlswError(ValueError):
    pass


class NotLieElementError(ValueError):
    pass


def is_alsw(u: Word) -> bool:
    """True iff u is strictly lex-greater than every proper rotation."""
    if len(u) == 0:
        raise ValueError("the empty word is not eligible")
    s, p = u.letters, 0
    for n, x in enumerate(s):
        if not (p := _duval_step(s[:n], p, x)):
            return False
    return p == len(s)


def _duval_step(w: tuple[int, ...], p: int, x: int) -> int:
    """Duval's step, letter order flipped: w·x's period when it can start an ALSW, else 0.

    p is w's period (0 when empty). A letter equal to the one p back keeps p;
    a smaller one makes w·x an ALSW; a larger one starts no ALSW.
    """
    if not w:
        return 1
    y = w[-p]
    return p if x == y else len(w) + 1 if x < y else 0


def shirshov_factorize(u: Word) -> list[Word]:
    """The unique non-decreasing factorization of u into ALSWs.

    Duval's algorithm with the letter order flipped, so that the factors are
    rotation-maximal words; the factor sequence is non-decreasing in the lex
    order in which a proper prefix is greater, and concatenates back to u.
    """
    if len(u) == 0:
        raise ValueError("cannot factorize the empty word")
    s = u.letters
    n = len(s)
    factors: list[Word] = []
    i = 0
    while i < n:
        j, k = i + 1, i
        while j < n and s[k] >= s[j]:
            k = i if s[k] > s[j] else k + 1
            j += 1
        while i <= k:
            factors.append(u[i : i + j - k])
            i += j - k
    return factors


def lsw_bracket(u: Word) -> LieTerm:
    """Standard bracketing of an ALSW: split off the longest proper ALSW suffix."""
    if not is_alsw(u):
        raise NotAlswError(f"{u} is not an associative Lyndon-Shirshov word")
    if len(u) == 1:
        return LieTerm.leaf(u.alphabet, u.letters[0])
    for cut in range(1, len(u)):
        if is_alsw(u[cut:]):
            return LieTerm.bracket(lsw_bracket(u[:cut]), lsw_bracket(u[cut:]))
    raise AssertionError("an ALSW of length >= 2 always has a proper ALSW suffix")


def nlsw_decompose(f: NcPolynomial) -> dict[LieTerm, Scalar]:
    """Write an expanded Lie element as a combination of bracketed NLSWs.

    Triangular elimination on leading words; raises NotLieElementError when
    the input is not in the span of the NLSW expansions.
    """
    out: dict[LieTerm, Scalar] = {}
    rest = f
    while not rest.is_zero():
        u, c = rest.leading()
        if len(u) == 0 or not is_alsw(u):
            raise NotLieElementError(f"leading word {u} is not an ALSW")
        t = lsw_bracket(u)
        out[t] = c
        rest = rest - expand_bracket({t: c})
        if not rest.is_zero() and deglex_key(rest.leading()[0]) >= deglex_key(u):
            raise NotLieElementError("elimination did not lower the leading word")
    return out


@dataclass(frozen=True, slots=True)
class PbwMonomial:
    """A non-decreasing product of ALSW factors.

    ``pbw_basis`` builds its monomials through the slot setter, not ``__init__``.
    """

    factors: tuple[Word, ...]

    @property
    def degree(self) -> int:
        return sum(len(f) for f in self.factors)

    def concatenation(self) -> Word:
        if not self.factors:
            raise ValueError("the empty product has no alphabet")
        w = self.factors[0]
        for f in self.factors[1:]:
            w = w * f
        return w

    def __str__(self) -> str:
        if not self.factors:
            return "1"
        return "·".join(str(f) for f in self.factors)


# the slot setter, which a frozen PbwMonomial's __setattr__ does not reach
_set_factors = PbwMonomial.factors.__set__


def lie_gs_check(relations, max_degree: int | None = None):
    """GS verdict for Lie relations given by their associative expansions.

    Each relation must decompose as a Lie element; the check itself runs on
    the expansions, whose verdict equals the Lie one.
    """
    relations = list(relations)
    for f in relations:
        nlsw_decompose(f)  # raises NotLieElementError on bad input
    return is_gs_basis(RuleSet(relations), max_degree)


def pbw_basis(S, d: int, alphabet: Alphabet | None = None) -> list[PbwMonomial]:
    """All non-decreasing products of ALSWs from Irr(S), total degree <= d.

    S may be a certified CompletionResult, a RuleSet certified elsewhere, or
    None for the free case.  Output is ordered by (degree, deg-lex of the
    concatenation); the unit ideal has none.  The ALSWs are found by a walk
    of Irr(S) that carries Duval's period and visits only the words that
    can start an ALSW.
    """
    if isinstance(S, CompletionResult):
        ruleset = S.certified_basis()
    elif S is None:
        ruleset = RuleSet()
    else:
        ruleset = S
    alphabet = ruleset.query_alphabet(alphabet)
    if d < 0:
        raise ValueError("degree bound must be >= 0")

    k = len(alphabet)
    start, moves = _live_moves(ruleset, k)
    if not start:
        return []  # the unit ideal: Irr(S), and with it the PBW basis, is empty
    # (word, Duval period, automaton state) for each word of Irr(S) that can start an ALSW
    atoms = []
    stack = [((), 0, 0)]
    while stack:
        w, p, s = stack.pop()
        if p == len(w) > 0:
            atoms.append(w)
        if len(w) < d:
            for x, t in moves[s]:
                if q := _duval_step(w, p, x):
                    stack.append((w + (x,), q, t))
    # with a letter above every letter appended, a proper prefix compares
    # greater; in this order the non-decreasing factor sequences are the
    # index-ordered runs
    atoms.sort(key=lambda t: t + (k,))
    # A monomial's key is its concatenation's letters + 1 read as the digits
    # of a base-(k + 1) number; an atom u extends it to key·(k+1)^|u| + code(u).
    # A longer word gets a larger key and equal lengths compare lex, so the
    # key alone is the (degree, deg-lex) order. The factorization into
    # non-decreasing ALSWs is unique, so keys never tie and the sort never
    # reaches the factors.
    groups: dict[int, tuple[list[int], list]] = {}  # length -> (indices, (index, word, code))
    for i, t in enumerate(atoms):
        code = 0
        for x in t:
            code = code * (k + 1) + x + 1
        idxs, entries = groups.setdefault(len(t), ([], []))
        idxs.append(i)
        entries.append((i, _trusted_word(alphabet, t), code))
    by_len = [(n, (k + 1) ** n, idxs, entries) for n, (idxs, entries) in sorted(groups.items())]
    found = [(0, ())]  # (key, factors)
    stack = [(0, 0, (), 0)]  # (degree, key, factors, first atom index allowed)
    while stack:
        degree, key, factors, first = stack.pop()
        for n, shift, idxs, entries in by_len:
            if (total := degree + n) > d:
                break
            base = key * shift
            for i, u, code in entries[bisect_left(idxs, first):]:
                ext = factors + (u,)
                found.append((base + code, ext))
                if total < d:
                    stack.append((total, base + code, ext, i))
    found.sort()
    # in place, so each entry's key is freed as its monomial is built
    new = object.__new__
    for i, (_, factors) in enumerate(found):
        found[i] = mono = new(PbwMonomial)
        _set_factors(mono, factors)
    return found
