"""Independent brute-force oracles shared by the test batteries.

Everything here deliberately avoids the library's own algorithms: overlaps
by position scan, factorizations by exhaustive search, congruences by
closure of relation applications, ALSW censuses by rotation checks.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cmp_to_key

from shirshov import Alphabet, NcPolynomial, Word, mul_bounded
from shirshov.complete import CompletionResult
from shirshov.lie import PbwMonomial
from shirshov.rewrite import RuleSet, irr_words
from shirshov.words import AlphabetMismatchError, deglex_key


def _same_alphabet(u: Word, v: Word) -> None:
    if u.alphabet != v.alphabet:
        raise AlphabetMismatchError("words over different alphabets")


def cmp_deglex(u: Word, v: Word) -> int:
    """-1, 0 or 1: compare by degree, then left-to-right by generator precedence."""
    _same_alphabet(u, v)
    ku, kv = (len(u), u.letters), (len(v), v.letters)
    return -1 if ku < kv else 1 if ku > kv else 0


def cmp_lex_prefix_greater(u: Word, v: Word) -> int:
    """-1, 0 or 1 in the pure lex order in which a proper prefix is greater
    than its extensions, the order of non-decreasing ALSW factorizations."""
    _same_alphabet(u, v)
    for a, b in zip(u.letters, v.letters):
        if a != b:
            return -1 if a < b else 1
    if len(u) == len(v):
        return 0
    return 1 if len(u) < len(v) else -1


def brute_intersections(u: Word, v: Word):
    """(a, b) pairs with u·b = a·v, both nonempty, by scanning offsets."""
    out = []
    for k in range(1, min(len(u), len(v))):
        if u.letters[len(u) - k:] == v.letters[:k]:
            out.append((u.letters[: len(u) - k], v.letters[k:]))
    return out


def brute_inclusions(u: Word, v: Word):
    """(a, b) pairs with u = a·v·b, excluding the identity occurrence."""
    out = []
    for start in range(len(u) - len(v) + 1):
        if u.letters[start : start + len(v)] == v.letters:
            a = u.letters[:start]
            b = u.letters[start + len(v):]
            if a or b:
                out.append((a, b))
    return out


def rotation_maximal(letters: tuple[int, ...]) -> bool:
    """ALSW by definition: strictly greater than every proper rotation."""
    return all(letters > letters[k:] + letters[:k] for k in range(1, len(letters)))


def all_words(alphabet: Alphabet, length: int):
    for tup in itertools.product(range(len(alphabet)), repeat=length):
        yield Word(alphabet, tup)


def alsw_census(k: int, d: int) -> int:
    """Count rotation-maximal words of length d over k letters."""
    alphabet = Alphabet(tuple(chr(ord("a") + i) for i in range(k)))
    return sum(1 for w in all_words(alphabet, d) if rotation_maximal(w.letters))


def necklace_count(k: int, d: int) -> int:
    """(1/d) sum_{e|d} mu(d/e) k^e."""
    total = 0
    for e in range(1, d + 1):
        if d % e == 0:
            total += _mobius(d // e) * k**e
    return total // d


def _mobius(n: int) -> int:
    if n == 1:
        return 1
    result = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        else:
            p += 1
    if n > 1:
        result = -result
    return result


def all_monotone_alsw_factorizations(w: Word):
    """Every factorization of w into ALSWs non-decreasing under the
    prefix-greater lex order, found by exhaustive splitting."""
    results = []

    def go(rest: Word, acc: list[Word]):
        if len(rest) == 0:
            results.append(list(acc))
            return
        for cut in range(1, len(rest) + 1):
            head = rest[:cut]
            if not rotation_maximal(head.letters):
                continue
            if acc and cmp_lex_prefix_greater(acc[-1], head) == 1:
                continue
            acc.append(head)
            go(rest[cut:], acc)
            acc.pop()

    go(w, [])
    return results


def reference_lsw_bracket(w: Word) -> str:
    """The standard bracketing of an ALSW as text like ``[b,[b,a]]``: the cuts are
    scanned from the left for the first, and so longest, proper suffix that is
    rotation-maximal, and both sides are bracketed the same way."""
    if len(w) == 1:
        return w.alphabet.symbols[w.letters[0]]
    cut = next(c for c in range(1, len(w)) if rotation_maximal(w.letters[c:]))
    return f"[{reference_lsw_bracket(w[:cut])},{reference_lsw_bracket(w[cut:])}]"


def congruence_classes(alphabet: Alphabet, relations, max_len: int):
    """Partition of all words of length <= max_len by closure of relation
    applications (both directions, all positions).  Relations are (u, v)
    word pairs; only length-preserving or length-changing within the cap
    are followed, so classes straddling the cap stay within the universe
    of words of length <= max_len."""
    words = []
    for n in range(max_len + 1):
        words.extend(w.letters for w in all_words(alphabet, n))
    index = {w: i for i, w in enumerate(words)}
    parent = list(range(len(words)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry

    pairs = [(u.letters, v.letters) for u, v in relations]
    for w in words:
        for u, v in pairs:
            for s, t in ((u, v), (v, u)):
                for pos in range(len(w) - len(s) + 1):
                    if w[pos : pos + len(s)] == s:
                        res = w[:pos] + t + w[pos + len(s):]
                        if len(res) <= max_len:
                            union(index[w], index[res])
    classes: dict[int, set] = {}
    for w in words:
        classes.setdefault(find(index[w]), set()).add(w)
    return set(frozenset(c) for c in classes.values())


def binomial(n: int, k: int) -> int:
    if k < 0 or k > n:
        return 0
    out = 1
    for i in range(k):
        out = out * (n - i) // (i + 1)
    return out


def random_ideal_element(rng, basis, alphabet, max_degree: int, n_terms: int):
    """A random combination sum alpha_i a_i s_i b_i of total degree <= max_degree."""
    total = NcPolynomial.zero(alphabet)
    k = len(alphabet)
    for _ in range(n_terms):
        s = basis[rng.randrange(len(basis))]
        room = max_degree - len(s.leading()[0])
        if room < 0:
            continue
        la = rng.randrange(room + 1)
        lb = rng.randrange(room - la + 1)
        a = Word(alphabet, tuple(rng.randrange(k) for _ in range(la)))
        b = Word(alphabet, tuple(rng.randrange(k) for _ in range(lb)))
        alpha = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 2]))
        total = total + mul_bounded(a, s, b).scale(alpha)
    return total


def brute_match(letters: tuple[int, ...], S):
    """RuleSet.leftmost_match's rule by exhaustive scan of S.active and S.leads:
    the first end position of an active lead occurrence, then the longest
    lead ending there, then the lowest index.  (position, index) or None."""
    for end in range(len(letters) + 1):
        hits = [
            (-len(S.leads[i]), i)
            for i in S.active
            if len(S.leads[i]) <= end and letters[end - len(S.leads[i]) : end] == S.leads[i]
        ]
        if hits:
            neg_len, i = min(hits)
            return (end + neg_len, i)
    return None


def brute_leftmost_match(letters: tuple[int, ...], S):
    """The leftmost-starting active lead occurrence, lowest index first."""
    for pos in range(len(letters) + 1):
        for i in sorted(S.active):
            if letters[pos : pos + len(S.leads[i])] == S.leads[i]:
                return (pos, i)
    return None


def reference_rewrite_word(letters: tuple[int, ...], S):
    """(normal form letters or None, rewrites): rewrite_word's stack rewriter
    with a brute-force suffix scan over S.active and S.leads in place of the
    lead automaton.  After each pushed letter the longest active lead that
    ends the stack, lowest index first, is popped and the rule's first tail
    word is read again; a monomial rule, or an active empty lead, gives None."""
    active = list(S.active)
    if any(not S.leads[i] for i in active):
        return None, 0
    todo = list(reversed(letters))
    out: list[int] = []
    rewrites = 0
    while todo:
        out.append(todo.pop())
        hits = [
            (-len(S.leads[i]), i)
            for i in active
            if len(S.leads[i]) <= len(out) and tuple(out[len(out) - len(S.leads[i]) :]) == S.leads[i]
        ]
        if hits:
            neg_len, r = min(hits)
            rewrites += 1
            del out[len(out) + neg_len :]
            tail = S.tails[r][1]
            if not tail:
                return None, rewrites
            todo.extend(reversed(tail[0]))
    return tuple(out), rewrites


def nested_lead(S):
    """(i, j) for active rules whose leads differ, lead i lying inside lead
    j, or None: on a set without such a pair brute_match and
    brute_leftmost_match agree."""
    for i in S.active:
        u = S.leads[i]
        for j in S.active:
            v = S.leads[j]
            if u != v and any(v[k : k + len(u)] == u for k in range(len(v) - len(u) + 1)):
                return (i, j)
    return None


def reference_reduce_with_steps(f: NcPolynomial, S, match=brute_match):
    """Reduction one full pass per rewrite, matching words with ``match``.

    After every step the whole support is sorted again and matched from the
    top; the deg-lex-greatest reducible word is rewritten at match(letters, S)
    by subtracting c·a·s·b built as a polynomial.  Returns (normal form,
    step count).
    """
    if not len(S) or f.is_zero():
        return f, 0
    terms = dict(f.terms)
    steps = 0
    while True:
        hit = None
        for w in sorted(terms, key=deglex_key, reverse=True):
            m = match(w.letters, S)
            if m is not None:
                hit = (w, m)
                break
        if hit is None:
            break
        w, (pos, ridx) = hit
        lead_len = len(S.leads[ridx])
        a = w[:pos]
        b = w[pos + lead_len:]
        replacement = mul_bounded(a, S[ridx], b).scale(terms[w])
        for u, cu in replacement.terms.items():
            nv = terms.get(u, 0) - cu
            if nv == 0:
                terms.pop(u, None)
            else:
                terms[u] = nv
        steps += 1
    return NcPolynomial(f.alphabet, terms), steps


def reference_composition_value(f: NcPolynomial, g: NcPolynomial, kind: str, a: Word, b: Word):
    """f·b - a·g for an intersection, f - a·g·b for an inclusion, built as
    polynomials with mul_bounded and subtraction."""
    one = f.alphabet.empty()
    if kind == "intersection":
        return mul_bounded(one, f, b) - mul_bounded(a, g, one)
    return f - mul_bounded(a, g, b)


def reference_compositions(s1: NcPolynomial, s2: NcPolynomial, i: int, j: int):
    """(source, kind, a, b, w, value) for every composition of a monic pair,
    in the library's order, with overlaps found by position scan: the
    intersections of (s1, s2), then for i != j those of (s2, s1), the
    inclusions both ways and the equal-lead case; for i == j the
    self-inclusions.  Intersections come by |b| ascending, inclusions by |a|
    ascending."""
    u, v = s1.leading()[0], s2.leading()[0]
    alphabet = s1.alphabet
    out = []

    def add(f, g, fi, gi, kind, pairs):
        fw = f.leading()[0].letters
        for a, b in pairs:
            w = fw + b if kind == "intersection" else fw
            value = reference_composition_value(f, g, kind, Word(alphabet, a), Word(alphabet, b))
            out.append(((fi, gi), kind, a, b, w, value))

    add(s1, s2, i, j, "intersection", reversed(brute_intersections(u, v)))
    if i != j:
        add(s2, s1, j, i, "intersection", reversed(brute_intersections(v, u)))
        add(s1, s2, i, j, "inclusion", brute_inclusions(u, v))
        add(s2, s1, j, i, "inclusion", brute_inclusions(v, u))
        if u == v:
            add(s1, s2, i, j, "inclusion", [((), ())])
    else:
        add(s1, s2, i, j, "inclusion", brute_inclusions(u, v))
    return out


def reference_growth_counts(S, L: int) -> tuple[int, ...]:
    """Irreducible words per length 0..L, counted off the listed Irr(S)."""
    counts = [0] * (L + 1)
    for w in irr_words(S, L):
        counts[len(w)] += 1
    return tuple(counts)


def reference_pbw_basis(S, d: int, alphabet: Alphabet | None = None):
    """PBW monomials of total degree <= d, by filtering every Irr(S) word.

    The ALSWs of Irr(S) are sorted with cmp_lex_prefix_greater, and each
    monomial is extended by every later atom that still fits, recursively.
    Output is ordered by (degree, deg-lex of the concatenation).
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
    if brute_match((), ruleset) is not None:
        return []
    atoms = [u for u in irr_words(ruleset, d, alphabet) if len(u) > 0 and rotation_maximal(u.letters)]
    atoms.sort(key=cmp_to_key(cmp_lex_prefix_greater))
    out = [PbwMonomial(())]

    def extend(prefix, first, remaining):
        for i, u in enumerate(atoms[first:], first):
            if len(u) <= remaining:
                seq = prefix + (u,)
                out.append(PbwMonomial(seq))
                extend(seq, i, remaining - len(u))

    extend((), 0, d)
    out.sort(key=lambda m: (m.degree, sum((u.letters for u in m.factors), ())))
    return out


def product_series(lengths, d: int) -> list[int]:
    """Coefficients of t^0..t^d in the product of 1/(1 - t^n) over lengths."""
    coeffs = [1] + [0] * d
    for n in lengths:
        for m in range(n, d + 1):
            coeffs[m] += coeffs[m - n]
    return coeffs


def reference_algebra_relations(p):
    """A presentation's polynomial relations by polynomial arithmetic: u - v per
    word relation, x·x' - 1 and x'·x - 1 per group generator, and
    x_i·x_j - x_j·x_i - [x_i, x_j] per Lie pair i > j, an omitted bracket 0,
    each made monic, the zero ones dropped; the algebra kind as the library reads it."""
    if p.kind == "algebra":
        return list(p.relations)
    A = p.alphabet
    if p.kind == "lie":
        table = dict(p.relations)
        rels = [
            NcPolynomial.monomial(Word(A, (i, j)))
            - NcPolynomial.monomial(Word(A, (j, i)))
            - table.get((i, j), NcPolynomial.zero(A))
            for i in range(len(A))
            for j in range(i)
        ]
    else:
        rels = [NcPolynomial.monomial(u) - NcPolynomial.monomial(v) for u, v in p.relations]
    if p.kind == "group":
        n = len(A) // 2
        one = NcPolynomial.one(A)
        for g in range(n):
            x = Word(A, (g,))
            xi = Word(A, (g + n,))
            rels.append(NcPolynomial.monomial(x * xi) - one)
            rels.append(NcPolynomial.monomial(xi * x) - one)
    return [f.monic() for f in rels if not f.is_zero()]


def lie_source(names, table: dict) -> str:
    """A kind: lie file for the multiplication table {(i, j): {t: c}}, i > j:
    one bracket line per entry, in the table's order, an empty one as 0."""
    lines = []
    for (i, j), combo in table.items():
        rhs = " ".join(f"{'-' if c < 0 else '+'} {abs(c)}*{names[t]}" for t, c in combo.items() if c)
        lines.append(f"  bracket {names[i]} {names[j]} = {rhs.removeprefix('+ ') or 0}\n")
    return f"kind: lie\ngenerators: {' '.join(names)}\nrelations:\n" + "".join(lines)


def jacobiator_vanishes(table: dict) -> bool:
    """[[i,j],k] + [[j,k],i] + [[k,i],j] = 0 for every triple of generators,
    computed on the multiplication table {(i, j): {t: c}}, i > j, itself:
    [x_j, x_i] = -[x_i, x_j], and a pair the table leaves out brackets to 0."""

    def bracket(i: int, j: int) -> dict:
        if i < j:
            return {t: -c for t, c in bracket(j, i).items()}
        return table.get((i, j), {})

    def bracket_combo(combo_i: dict, combo_j: dict) -> dict:
        out: dict[int, Fraction] = {}
        for i, ci in combo_i.items():
            for j, cj in combo_j.items():
                for t, c in bracket(i, j).items():
                    out[t] = out.get(t, Fraction(0)) + ci * cj * c
        return {t: c for t, c in out.items() if c != 0}

    indices = {i for ij, combo in table.items() for i in (*ij, *combo)}
    for i, j, k in itertools.combinations(sorted(indices), 3):
        total: dict[int, Fraction] = {}
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            inner = bracket(a, b)
            outer = bracket_combo(inner, {c: Fraction(1)})
            for t, v in outer.items():
                total[t] = total.get(t, Fraction(0)) + v
        if any(v != 0 for v in total.values()):
            return False
    return True


class DictPoly:
    """Reference polynomial arithmetic on a plain {letters: coefficient} dict,
    in the coefficients' own field arithmetic, with no integer form and no
    term order."""

    def __init__(self, alphabet: Alphabet, terms: dict):
        self.alphabet = alphabet
        self.terms = {w: c for w, c in terms.items() if c != 0}

    @staticmethod
    def of(f: NcPolynomial) -> "DictPoly":
        return DictPoly(f.alphabet, {w.letters: c for w, c in f.terms.items()})

    def __add__(self, other: "DictPoly") -> "DictPoly":
        terms = dict(self.terms)
        for w, c in other.terms.items():
            terms[w] = terms.get(w, 0) + c
        return DictPoly(self.alphabet, terms)

    def __sub__(self, other: "DictPoly") -> "DictPoly":
        return self + other.scale(-1)

    def __mul__(self, other: "DictPoly") -> "DictPoly":
        terms: dict = {}
        for u, a in self.terms.items():
            for v, b in other.terms.items():
                terms[u + v] = terms.get(u + v, 0) + a * b
        return DictPoly(self.alphabet, terms)

    def scale(self, c) -> "DictPoly":
        return DictPoly(self.alphabet, {w: a * c for w, a in self.terms.items()})

    def monic(self) -> "DictPoly":
        """Every coefficient over the one of the deg-lex greatest word."""
        lc = self.terms[max(self.terms, key=lambda w: (len(w), w))]
        return DictPoly(self.alphabet, {w: c / lc for w, c in self.terms.items()})

    def poly(self) -> NcPolynomial:
        return NcPolynomial(self.alphabet, {Word(self.alphabet, w): c for w, c in self.terms.items()})


def _ref_lead(f: dict) -> tuple:
    return max(f, key=lambda w: (len(w), w))


def _ref_find(w: tuple, u: tuple) -> list[int]:
    """Every position at which u occurs in w, by a scan of all of them."""
    return [i for i in range(len(w) - len(u) + 1) if w[i:i + len(u)] == u]


def _ref_sub(f: dict, c, a: tuple, g: dict, b: tuple) -> None:
    """f -= c·a·g·b, in place."""
    for v, d in g.items():
        key = a + v + b
        f[key] = f.get(key, 0) - d * c
        if not f[key]:
            del f[key]


def _ref_reduce(f: dict, G: list[dict]) -> dict:
    """f's remainder modulo the monic polynomials G: the greatest word that some
    lead divides is rewritten at the first lead and position found, until no
    word of f has a lead of G as a subword."""
    f, out = dict(f), {}
    leads = [(_ref_lead(g), g) for g in G]
    while f:
        w = _ref_lead(f)
        for u, g in leads:
            pos = _ref_find(w, u)
            if pos:
                _ref_sub(f, f[w], w[:pos[0]], g, w[pos[0] + len(u):])
                break
        else:
            out[w] = f.pop(w)
    return out


def _ref_compositions(f: dict, g: dict):
    """(w, value) per intersection and inclusion composition of f and g, in
    that orientation, the trivial ones (u = v at a = b = 1 of f with itself)
    left out."""
    u, v = _ref_lead(f), _ref_lead(g)
    for k in range(1, min(len(u), len(v))):
        if u[-k:] == v[:k]:  # w = u·v[k:] = u[:-k]·v
            value = {w + v[k:]: c for w, c in f.items()}
            _ref_sub(value, 1, u[:-k], g, ())
            yield u + v[k:], value
    for p in _ref_find(u, v):
        if f is not g:  # w = u = a·v·b
            value = dict(f)
            _ref_sub(value, 1, u[:p], g, u[p + len(v):])
            yield u, value


def reference_complete(relations, cap: int):
    """(status, {lead letters: {letters: coefficient}}): a textbook completion
    of the nonzero polynomials relations, on plain dicts in their own field.

    Every ordered pair of rules, a rule with itself too, is composed again,
    each composition with |w| <= cap reduced by brute-force subword scans and
    adjoined made monic, until a pass adjoins nothing.  The rules then shrink
    to those whose lead no other kept lead divides, and each tail is reduced
    modulo them.  The status is "unit_ideal" once a nonzero constant appears,
    "capped_degree" when a composition of the final rules has |w| > cap, and
    "complete" otherwise: compositions of rules dropped by the minimizing
    step do not count."""

    def monic(f):
        lc = f[_ref_lead(f)]
        return {w: c / lc for w, c in f.items()}

    G = []
    todo = [{w.letters: c for w, c in f.terms.items()} for f in relations]
    while todo:
        for f in todo:
            if _ref_lead(f) == ():
                return "unit_ideal", {(): {(): 1}}
            G.append(monic(f))
        todo = []
        for f, g in itertools.product(G, repeat=2):
            for w, value in _ref_compositions(f, g):
                if len(w) <= cap:
                    r = _ref_reduce(value, G + todo)
                    if r:
                        todo.append(monic(r))
    kept = []
    for g in sorted(G, key=lambda g: (len(_ref_lead(g)), _ref_lead(g))):
        if not any(_ref_find(_ref_lead(g), _ref_lead(h)) for h in kept):
            kept.append(g)
    over = any(len(w) > cap for f, g in itertools.product(kept, repeat=2) for w, _ in _ref_compositions(f, g))
    basis = {}
    for g in kept:
        u = _ref_lead(g)
        basis[u] = {u: g[u], **_ref_reduce({w: c for w, c in g.items() if w != u}, kept)}
    return ("capped_degree" if over else "complete"), basis
