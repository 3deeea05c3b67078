"""Reduction modulo a rule set, triviality mod (S,w), and Irr(S) enumeration."""

from __future__ import annotations

import os

from .ncpoly import NcPolynomial
from .words import Alphabet, AlphabetMismatchError, Word, cmp_deglex, deglex_key

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


def _first(lead: tuple[int, ...]) -> int | None:
    return lead[0] if lead else None


class RuleSet:
    """An ordered set of monic rewrite rules s, read as s_lead -> s_lead - s."""

    def __init__(self, rules=()):
        self.rules: list[NcPolynomial] = []
        self.leads: list[tuple[int, ...]] = []
        self.active: dict[int, None] = {}  # active rule indices, in ascending order
        self._by_first: dict[int, list[int]] = {}
        # active leads by length, each with its rule indices in ascending order
        self._by_len: dict[int, dict[tuple[int, ...], list[int]]] = {}
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
        self.active[idx] = None
        self._by_first.setdefault(_first(lead.letters), []).append(idx)
        self._by_len.setdefault(len(lead), {}).setdefault(lead.letters, []).append(idx)
        return idx

    def query_alphabet(self, alphabet: Alphabet | None = None) -> Alphabet:
        """The alphabet a query over this basis answers in.

        None means the basis's own; an explicit one must equal it.  An empty
        rule set has none, so its queries must name one.
        """
        if alphabet is None:
            alphabet = self.alphabet
        if alphabet is None:
            raise ValueError("empty rule set needs an explicit alphabet")
        if self.alphabet is not None and alphabet != self.alphabet:
            raise AlphabetMismatchError("query and basis over different alphabets")
        return alphabet

    def retire(self, idx: int) -> None:
        """Stop matching rule idx; it keeps its slot, so no index moves."""
        del self.active[idx]
        lead = self.leads[idx]
        self._by_first[_first(lead)].remove(idx)
        leads = self._by_len[len(lead)]
        leads[lead].remove(idx)
        if not leads[lead]:
            del leads[lead]
            if not leads:
                del self._by_len[len(lead)]

    # -- subword matching --------------------------------------------
    # Naive multi-pattern scan; words and rule sets stay desk-sized here.

    def leftmost_match(self, letters: tuple[int, ...]):
        """(position, rule index) of the leftmost match, lowest index first."""
        unit = self._by_first.get(None)
        if unit:
            return (0, unit[0])
        for pos, first in enumerate(letters):
            for idx in self._by_first.get(first, ()):
                lead = self.leads[idx]
                if letters[pos : pos + len(lead)] == lead:
                    return (pos, idx)
        return None

    def has_lead_suffix(self, letters: tuple[int, ...]) -> bool:
        """True when some active rule lead is a suffix of the given letters."""
        n = len(letters)
        for k, leads in self._by_len.items():
            if k <= n and letters[n - k:] in leads:
                return True
        return False


def reduce_with_steps(f: NcPolynomial, S: RuleSet, max_steps: int | None = None):
    """Deterministic reduction; returns (normal form, step count).

    Strategy: rewrite the deg-lex-greatest reducible word of the support, at
    its leftmost reducible position, with the lowest-index matching rule.
    Each word is taken once, from the top: a rewrite only adds lower words.
    """
    if max_steps is None:
        max_steps = _max_steps()
    alphabet = f.alphabet
    terms = {deglex_key(w): c for w, c in f.terms.items()}
    final = {}
    steps = 0
    while terms:
        key = max(terms)
        w = key[1]
        m = S.leftmost_match(w)
        if m is None:
            final[w] = terms.pop(key)
            continue
        pos, ridx = m
        lead_len = len(S.leads[ridx])
        a = w[:pos]
        b = w[pos + lead_len:]
        c = terms[key]
        for u, cu in S.rules[ridx].terms.items():
            v = a + u.letters + b
            vkey = (len(v), v)
            nv = terms.get(vkey, 0) - cu * c
            if nv == 0:
                terms.pop(vkey, None)
            else:
                terms[vkey] = nv
        steps += 1
        if steps > max_steps:
            raise StepLimitExceeded(f"reduction exceeded {max_steps} steps")
    if not steps:
        return f, 0
    return NcPolynomial(alphabet, {Word(alphabet, w): c for w, c in final.items()}), steps


def reduce(f: NcPolynomial, S: RuleSet) -> NcPolynomial:
    return reduce_with_steps(f, S)[0]


def rewrite_word(letters: tuple[int, ...], S: RuleSet, max_steps: int | None = None):
    """Normal form of a word: its letters, or None when it reduces to zero.

    S must be complete, with rules ``lead - tail`` and ``lead`` only. Letters
    move from the input onto an output stack that stays irreducible, so after
    each push only a suffix can be a lead. A lead found there is popped and
    the tail's letters go back onto the input, to be read again; a monomial
    rule absorbs the word. A complete basis is confluent (Composition-Diamond
    lemma), so this order of rewrites reaches the normal form ``reduce``
    reaches. Each rewrite counts as one step against max_steps.
    """
    if max_steps is None:
        max_steps = _max_steps()
    by_len = S._by_len
    if 0 in by_len:
        return None  # an active empty lead: the unit ideal
    todo = list(reversed(letters))
    out: list[int] = []
    steps = 0
    while todo:
        out.append(todo.pop())
        n = len(out)
        for k, leads in by_len.items():
            idxs = leads.get(tuple(out[n - k:])) if k <= n else None
            if idxs:
                break
        else:
            continue
        steps += 1
        if steps > max_steps:
            raise StepLimitExceeded(f"reduction exceeded {max_steps} steps")
        terms = iter(S.rules[idxs[0]].terms)
        next(terms)  # the lead
        tail = next(terms, None)
        if tail is None:
            return None
        del out[n - k:]
        todo.extend(reversed(tail.letters))
    return tuple(out)


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


def _irr_levels(S: RuleSet, d: int, k: int):
    """Irr(S) on letter tuples, one list per length 0..d, each in lex order.

    Breadth-first extension with prefix pruning: children of an irreducible
    word only need a lead-suffix check.
    """
    level: list[tuple[int, ...]] = [()]
    yield level
    for _ in range(d):
        nxt = []
        for w in level:
            for x in range(k):
                cand = w + (x,)
                if not S.has_lead_suffix(cand):
                    nxt.append(cand)
        level = nxt
        yield level


def irr_words(S: RuleSet, d: int, alphabet: Alphabet | None = None) -> list[Word]:
    """All words of degree <= d with no rule lead as a subword, deg-lex ascending."""
    if d < 0:
        raise ValueError("degree bound must be >= 0")
    alphabet = S.query_alphabet(alphabet)
    if S.leftmost_match(()) is not None:
        return []  # unit ideal: empty lead reduces everything
    return [Word(alphabet, w) for level in _irr_levels(S, d, len(alphabet)) for w in level]


def _lead_automaton(S: RuleSet, k: int) -> list[list[int]]:
    """Aho-Corasick automaton of the active leads of S over k letters.

    A state is a prefix of a lead. It is dead when some lead is a suffix of
    it: when it, or a state on its suffix-link chain, ends a lead. Returns,
    for each live state, the live states its k letters lead to; a letter into
    a dead state is left out. The empty word is state 0. With an empty lead
    (the unit ideal) it is dead, and no state is returned. Reading a word
    from state 0 stays among live states exactly while the word is
    irreducible.
    """
    goto: list[dict[int, int]] = [{}]
    dead = [False]
    for leads in S._by_len.values():
        for lead in leads:
            s = 0
            for x in lead:
                if x not in goto[s]:
                    goto[s][x] = len(goto)
                    goto.append({})
                    dead.append(False)
                s = goto[s][x]
            dead[s] = True
    if dead[0]:
        return []
    # breadth first, so a state's suffix link is final before the state is read
    link = [0] * len(goto)
    delta: list[list[int]] = [[]] * len(goto)
    order = [0]
    for s in order:
        row = list(delta[link[s]]) if s else [0] * k
        dead[s] = dead[s] or dead[link[s]]
        for x, t in goto[s].items():
            link[t] = row[x]
            row[x] = t
            order.append(t)
        delta[s] = row
    live = {s: i for i, s in enumerate([s for s in order if not dead[s]])}
    return [[live[t] for t in delta[s] if t in live] for s in live]
