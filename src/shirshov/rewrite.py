"""Reduction modulo a rule set, triviality mod (S,w), and Irr(S) enumeration."""

from __future__ import annotations

import os

from .ncpoly import NcPolynomial, mul_bounded
from .words import Alphabet, Word, cmp_deglex, deglex_key

DEFAULT_MAX_STEPS = 10**7


class StepLimitExceeded(RuntimeError):
    """The reduction step safety cap was hit."""


class TrivialityPreconditionError(ValueError):
    """is_trivial_mod called with leading word >= w."""


def _max_steps() -> int:
    raw = os.environ.get("GS_MAX_STEPS")
    if raw is None:
        return DEFAULT_MAX_STEPS
    try:
        n = int(raw)
    except ValueError:
        n = 0
    if n < 1:
        raise ValueError(f"GS_MAX_STEPS must be a positive integer, got {raw!r}")
    return n


class RuleSet:
    """An ordered set of monic rewrite rules s, read as s_lead -> s_lead - s."""

    def __init__(self, rules=()):
        self.rules: list[NcPolynomial] = []
        self.leads: list[tuple[int, ...]] = []
        self._by_first: dict[int, list[int]] = {}
        self.alphabet: Alphabet | None = None
        for r in rules:
            self.add(r)

    def __len__(self) -> int:
        return len(self.rules)

    def __iter__(self):
        return iter(self.rules)

    def add(self, rule: NcPolynomial) -> int:
        if rule.is_zero():
            raise ValueError("zero polynomial is not a rule")
        lead, lc = rule.leading()
        if lc != 1:
            raise ValueError("rules must be monic")
        if self.alphabet is None:
            self.alphabet = rule.alphabet
        elif rule.alphabet != self.alphabet:
            raise ValueError("rules over different alphabets")
        idx = len(self.rules)
        self.rules.append(rule)
        self.leads.append(lead.letters)
        if lead.letters:
            self._by_first.setdefault(lead.letters[0], []).append(idx)
        # an empty leading word (unit ideal) is handled directly in leftmost_match
        return idx

    def retire(self, idx: int) -> None:
        """Stop matching rule idx; it keeps its slot, so no index moves."""
        self._by_first[self.leads[idx][0]].remove(idx)

    # -- subword matching --------------------------------------------
    # Naive multi-pattern scan; words and rule sets stay desk-sized here.

    def leftmost_match(self, letters: tuple[int, ...]):
        """(position, rule index) of the leftmost match, lowest index first."""
        for lead_idx, lead in enumerate(self.leads):
            if not lead:
                return (0, lead_idx)
        for pos, first in enumerate(letters):
            best = None
            for idx in self._by_first.get(first, ()):
                lead = self.leads[idx]
                if letters[pos : pos + len(lead)] == lead:
                    best = idx
                    break
            if best is not None:
                return (pos, best)
        return None

    def has_lead_suffix(self, letters: tuple[int, ...]) -> bool:
        """True when some rule lead is a suffix of the given letters."""
        for lead in self.leads:
            if len(lead) <= len(letters) and letters[len(letters) - len(lead):] == lead:
                return True
        return False


def reduce_with_steps(f: NcPolynomial, S: RuleSet, max_steps: int | None = None):
    """Deterministic reduction; returns (normal form, step count).

    Strategy: rewrite the deg-lex-greatest reducible word of the support, at
    its leftmost reducible position, with the lowest-index matching rule.
    """
    if max_steps is None:
        max_steps = _max_steps()
    if not len(S) or f.is_zero():
        return f, 0
    alphabet = f.alphabet
    terms = dict(f.terms)
    steps = 0
    while True:
        hit = None
        for w in sorted(terms, key=deglex_key, reverse=True):
            m = S.leftmost_match(w.letters)
            if m is not None:
                hit = (w, m)
                break
        if hit is None:
            break
        w, (pos, ridx) = hit
        rule = S.rules[ridx]
        lead_len = len(S.leads[ridx])
        a = w[:pos]
        b = w[pos + lead_len:]
        c = terms[w]
        replacement = mul_bounded(a, rule, b).scale(c)
        for u, cu in replacement.terms.items():
            nv = terms.get(u, 0) - cu
            if nv == 0:
                terms.pop(u, None)
            else:
                terms[u] = nv
        steps += 1
        if steps > max_steps:
            raise StepLimitExceeded(f"reduction exceeded {max_steps} steps")
    return NcPolynomial(alphabet, terms), steps


def reduce(f: NcPolynomial, S: RuleSet) -> NcPolynomial:
    return reduce_with_steps(f, S)[0]


def is_trivial_mod(f: NcPolynomial, S: RuleSet, w: Word) -> bool:
    """True iff f reduces to 0; requires f = 0 or leading(f) < w.

    Every rewrite step stays at words <= leading(f) < w, so reduction to zero
    witnesses a normal-S-word representation below w.
    """
    if not f.is_zero():
        lead, _ = f.leading()
        if cmp_deglex(lead, w) != -1:
            raise TrivialityPreconditionError(
                f"leading word {lead} is not below the bound {w}"
            )
    return reduce(f, S).is_zero()


def irr_words(S: RuleSet, d: int, alphabet: Alphabet | None = None) -> list[Word]:
    """All words of degree <= d with no rule lead as a subword, deg-lex ascending.

    Breadth-first extension with prefix pruning: children of a word only need
    a lead-suffix check.
    """
    if d < 0:
        raise ValueError("degree bound must be >= 0")
    if alphabet is None:
        alphabet = S.alphabet
    if alphabet is None:
        raise ValueError("empty rule set needs an explicit alphabet")
    if any(not lead for lead in S.leads):
        return []  # unit ideal: empty lead reduces everything
    k = len(alphabet)
    out: list[Word] = []
    level: list[tuple[int, ...]] = [()]
    if not S.has_lead_suffix(()):
        out.append(alphabet.empty())
    for _ in range(d):
        nxt = []
        for w in level:
            for x in range(k):
                cand = w + (x,)
                if not S.has_lead_suffix(cand):
                    nxt.append(cand)
        level = nxt
        out.extend(Word(alphabet, w) for w in level)
    return out
