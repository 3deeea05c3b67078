"""Reduction modulo a rule set, and Irr(S) enumeration."""

from __future__ import annotations

import os
from math import gcd

from .ncpoly import NcPolynomial, _join_fields
from .words import Alphabet, AlphabetMismatchError, Word, _trusted_word

DEFAULT_MAX_STEPS = 10**7


class StepLimitExceeded(RuntimeError):
    """The reduction step safety cap was hit."""


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
    """An ordered set of monic rewrite rules s, read as s_lead -> s_lead - s:
    ``S[i]`` is rule i, ``leads``, ``lead_strs``, ``tails`` and ``actions``
    its parts as the kernels read them."""

    def __init__(self, rules=()):
        self.rules: list[NcPolynomial] = []
        self.leads: list[tuple[int, ...]] = []
        # per rule, its lead as a str of one chr per letter, which compositions'
        # pair test searches in C: tuples have no factor search
        self.lead_strs: list[str] = []
        # per rule, (L, (u, ...), (n, ...)): the rule is (L·lead + sum n·u)/L
        # in ints, u running over the tail's letters (over GF(p), L is 1)
        self.tails: list[tuple[int, tuple[tuple[int, ...], ...], tuple[int, ...]]] = []
        # per rule, rewrite_word's action: (len(lead) - 1, the first tail
        # word's letters reversed, or None for a monomial rule)
        self.actions: list[tuple[int, tuple[int, ...] | None]] = []
        self.active: dict[int, None] = {}  # active rule indices, in ascending order
        self._automaton_cache = None  # built on first query, dropped by add and retire
        self.alphabet: Alphabet | None = None
        self.field = None  # Fraction for Q, else the prime_field class; set by the first add
        self.modulus = 0  # p over GF(p), 0 over Q
        self.zero = None  # the zero polynomial over alphabet, which every zero residue is
        for r in rules:
            self.add(r)

    def __len__(self) -> int:
        return len(self.leads)

    def __getitem__(self, i: int) -> NcPolynomial:
        return self.rules[i]

    def _over(self, alphabet: Alphabet, field) -> None:
        self.alphabet, self.field = alphabet, field
        self.modulus = getattr(field, "modulus", 0)
        self.zero = NcPolynomial._from_ints(alphabet, None, {})

    def _install(self, f: NcPolynomial) -> int:
        """Store the monic multiple of a nonzero polynomial of the set's as an active rule."""
        rule = f.monic()
        (_, lead), *tail = rule.ints
        idx = len(self.leads)
        self.rules.append(rule)
        self.leads.append(lead)
        self.lead_strs.append("".join(map(chr, lead)))
        us = tuple(u for _, u in tail)
        self.tails.append((rule.den, us, tuple(rule.ints.values())[1:]))
        self.actions.append((len(lead) - 1, us[0][::-1] if us else None))
        self.active[idx] = None
        self._automaton_cache = None
        return idx

    def _admit(self, relation: NcPolynomial) -> NcPolynomial:
        """The one gate for relations: the first fixes the set's alphabet and
        field, every later one must match them."""
        if relation.is_zero():
            raise ValueError("zero polynomial is not a relation")
        if self.alphabet is not None and relation.alphabet != self.alphabet:
            raise AlphabetMismatchError("relations over different alphabets")
        self._over(relation.alphabet, _join_fields(self.field, relation.field))
        return relation

    def add(self, rule: NcPolynomial) -> int:
        """Install any nonzero polynomial as its monic multiple."""
        return self._install(self._admit(rule))

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
        self._automaton_cache = None

    # -- subword matching --------------------------------------------

    def _automaton(self, k: int):
        """(delta, r0): the Aho-Corasick automaton of the active leads over k
        letters, on its live states only.

        A live state is a lead prefix that contains no active lead, state 0
        the empty word. delta[s][x] is the live state after letter x, or ~r
        when a lead ends there: r is the lowest active index of the longest
        such lead. r0 is the lowest active index of an empty lead, else -1;
        then nothing is live and delta is empty.
        """
        if self._automaton_cache is not None:
            return self._automaton_cache
        goto: list[dict[int, int]] = [{}]
        own = [-1]  # own[n]: the lowest active index whose lead is trie node n
        for idx in self.active:  # ascending, so the lowest index claims a lead
            n = 0
            for x in self.leads[idx]:
                if x not in goto[n]:
                    goto[n][x] = len(goto)
                    goto.append({})
                    own.append(-1)
                n = goto[n][x]
            if own[n] < 0:
                own[n] = idx
        r0 = own[0]
        delta: list[list[int]] = []
        # breadth first, so a state's suffix link has its row before the
        # state is read; live states are numbered as they are found
        order = [] if r0 >= 0 else [(0, 0)]  # (trie node, suffix link's state)
        for n, link in order:
            row = list(delta[link]) if n else [0] * k
            for x, c in goto[n].items():
                if own[c] >= 0:  # c is a lead: its extensions are never entered
                    row[x] = ~own[c]
                elif row[x] >= 0:  # no shorter lead ends at c either: c is live
                    order.append((c, row[x]))  # row[x] is c's longest proper suffix in the trie
                    row[x] = len(order) - 1
                # else row[x] already names the longest lead ending at c
            delta.append(row)
        table = (delta, r0)
        if self.alphabet is not None:  # an alphabet-less set is the free case of any k
            self._automaton_cache = table
        return table

    def leftmost_match(self, letters: tuple[int, ...]):
        """(position, rule index) of the first active lead occurrence to end.

        At that end the longest lead wins, then the lowest index; an active
        empty lead matches at 0. When no active lead lies inside another,
        this is the leftmost occurrence. One table lookup per letter, until
        one names a rule.
        """
        if self.alphabet is None:
            return None  # no rules
        delta, r0 = self._automaton(len(self.alphabet))
        if r0 >= 0:
            return (0, r0)
        s = 0
        for end, x in enumerate(letters, 1):
            s = delta[s][x]
            if s < 0:
                return (end - len(self.leads[~s]), ~s)
        return None

    def has_lead_suffix(self, letters: tuple[int, ...]) -> bool:
        """True when some active rule lead is a suffix of the given letters,
        by a scan of the active leads: the table holds no state past a lead."""
        n = len(letters)
        leads = (self.leads[i] for i in self.active)
        return any(len(u) <= n and letters[n - len(u):] == u for u in leads)


def _rewrite(S: RuleSet, terms: dict, D: int, c: int, a: tuple, b: tuple, r: int) -> int:
    """One rewrite step: c/D·a·lead_r·b, popped from terms, becomes c/D·a·(lead_r - rule r)·b.

    The pending numerators and D scale by L/gcd(c, L), L the rule's integer
    form scale, when that is not 1.  Over GF(p) L = D = 1 and ints are mod p.
    Returns the new D."""
    L, us, ns = S.tails[r]
    if L != 1:
        g = gcd(c, L)
        if g != L:
            k = L // g
            D *= k
            for t in terms:
                terms[t] *= k
        c //= g
    p = S.modulus
    for u, n in zip(us, ns):
        v = a + u + b
        vkey = (len(v), v)
        nv = terms.get(vkey, 0) - c * n
        if p:
            nv %= p
        if nv:
            terms[vkey] = nv
        else:
            del terms[vkey]
    return D


def _reduce_ints(S: RuleSet, terms: dict, D: int):
    """(out, D, steps): the sum of n/D·w over terms, which maps keys (len(w), w) to
    ints and is consumed, reduced to numerators over the final D in out, keyed alike.
    Its deg-lex-greatest word is popped and rewritten, or leaves for out: a rewrite
    only adds lower words.  A step that grows D rescales the numerators out."""
    max_steps = _max_steps()
    out = {}
    steps = 0
    while terms:
        key = max(terms)
        c = terms.pop(key)
        w = key[1]
        m = S.leftmost_match(w)
        if m is None:
            out[key] = c
            continue
        pos, r = m
        grown = _rewrite(S, terms, D, c, w[:pos], w[pos + len(S.leads[r]):], r)
        if grown != D:
            for t in out:
                out[t] *= grown // D
            D = grown
        steps += 1
        if steps > max_steps:
            raise StepLimitExceeded(f"reduction exceeded {max_steps} steps")
    return out, D, steps


def _residue(S: RuleSet, terms: dict, D: int) -> tuple[NcPolynomial, int]:
    """(residue, steps): ``_reduce_ints`` of terms over D, as a polynomial over S's field."""
    out, D, steps = _reduce_ints(S, terms, D)
    return (NcPolynomial._from_ints(S.alphabet, S.field, out, D) if out else S.zero), steps


def reduce_with_steps(f: NcPolynomial, S: RuleSet):
    """Deterministic reduction; returns (normal form, step count).

    Strategy: rewrite the deg-lex-greatest reducible word of the support at
    ``S.leftmost_match``, the leftmost match in every completion basis; with
    a nested lead the remainder may differ, a GS-basis verdict cannot.  An
    irreducible f is returned as is, any other goes to ``_reduce_ints``.
    """
    S.query_alphabet(f.alphabet)
    _join_fields(S.field, f.field)
    for _, w in f.ints:
        if S.leftmost_match(w) is not None:
            return _residue(S, dict(f.ints), f.den)
    return f, 0


def reduce(f: NcPolynomial, S: RuleSet) -> NcPolynomial:
    return reduce_with_steps(f, S)[0]


def rewrite_word(letters: tuple[int, ...], S: RuleSet):
    """Normal form of a word: its letters, or None when it reduces to zero.

    S must be complete, with rules ``lead - tail`` and ``lead`` only. Letters
    move from the input onto an irreducible output stack, with the lead
    automaton's state beside each, so one table lookup per letter either
    pushes it or names the rule whose lead it ends. That rule's action,
    stored once at install, pops the rest of the lead and puts the tail's
    letters back onto the input, to be read again; a monomial rule absorbs
    the word. A complete basis is confluent (Composition-Diamond lemma), so
    this order of rewrites reaches the normal form ``reduce`` reaches. Each
    rewrite counts to GS_MAX_STEPS.
    """
    max_steps = _max_steps()
    if S.alphabet is None:
        return tuple(letters)  # no rules
    delta, r0 = S._automaton(len(S.alphabet))
    if r0 >= 0:
        return None  # an active empty lead: the unit ideal
    actions = S.actions
    todo = list(reversed(letters))
    out: list[int] = []
    states = [0]  # states[i]: the automaton's state after out[:i]
    s = 0
    steps = 0
    while todo:
        x = todo.pop()
        t = delta[s][x]
        if t >= 0:
            out.append(x)
            states.append(t)
            s = t
            continue
        steps += 1
        if steps > max_steps:
            raise StepLimitExceeded(f"reduction exceeded {max_steps} steps")
        back, tail = actions[~t]
        if tail is None:
            return None
        n = len(out) - back  # the lead ends in x, not yet pushed
        del out[n:]
        del states[n + 1:]
        s = states[n]
        todo.extend(tail)
    return tuple(out)


def _live_moves(S: RuleSet, k: int):
    """(start, moves): Ufnarovski's graph of chains, whose paths spell Irr(S).

    Its nodes are the automaton's live states: start is [0], or [] when an
    active empty lead leaves none; moves[s] lists (letter, state) for the
    transitions of s that name a live state, not a rule.
    """
    delta, r0 = S._automaton(k)
    return ([0] if r0 < 0 else []), [[(x, t) for x, t in enumerate(row) if t >= 0] for row in delta]


def _irr_levels(S: RuleSet, d: int, k: int):
    """Irr(S) on letter tuples, one list per length 0..d, each in lex order."""
    start, moves = _live_moves(S, k)
    # per state, its live moves as one-letter tuples and as target states
    steps = [[(x,) for x, _ in row] for row in moves]
    targets = [[t for _, t in row] for row in moves]
    words, states = [() for _ in start], start  # parallel: each word's automaton state
    yield words
    for n in range(1, d + 1):
        words = [w + x for w, s in zip(words, states) for x in steps[s]]
        if n < d:  # the last level's states are never read
            states = [t for s in states for t in targets[s]]
        yield words


def irr_words(S: RuleSet, d: int, alphabet: Alphabet | None = None) -> list[Word]:
    """All words of degree <= d with no rule lead as a subword, deg-lex ascending."""
    if d < 0:
        raise ValueError("degree bound must be >= 0")
    alphabet = S.query_alphabet(alphabet)
    return [_trusted_word(alphabet, w) for level in _irr_levels(S, d, len(alphabet)) for w in level]


def irr_counts(S: RuleSet, d: int, alphabet: Alphabet | None = None) -> list[int]:
    """Irr(S)'s word count per length 0..d: live paths counted over the
    automaton's rows, no word built."""
    if d < 0:
        raise ValueError("degree bound must be >= 0")
    delta, _ = S._automaton(len(S.query_alphabet(alphabet)))
    # per live state, the paths ending there; the unit ideal has no state
    ends = [1] + [0] * (len(delta) - 1) if delta else []
    counts = []
    for _ in range(d + 1):
        counts.append(sum(ends))
        nxt = [0] * len(delta)
        for row, c in zip(delta, ends):
            if c:
                for t in row:
                    if t >= 0:
                        nxt[t] += c
        ends = nxt
    return counts
