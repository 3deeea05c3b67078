"""Answer checks that do not call the engine.

Words are tuples of letter indices; leads are the leading words of a basis
as tuples.  Every function returns a list of error strings (empty when the
answer is right), so a caller can count failures without catching.
"""

from __future__ import annotations

import itertools
from collections import Counter
from math import comb


def contains_subword(word: tuple, pattern: tuple) -> bool:
    n, m = len(word), len(pattern)
    if m == 0:
        return True
    return any(word[i : i + m] == pattern for i in range(n - m + 1))


def irreducible_errors(word: tuple, leads) -> list[str]:
    """A normal form may contain no rule lead as a subword."""
    return [f"normal form contains lead {lead}" for lead in leads if contains_subword(word, lead)]


def content_errors(word: tuple, nf: tuple) -> list[str]:
    """Multihomogeneous relations keep each letter's multiplicity."""
    if Counter(word) != Counter(nf):
        return ["normal form changed the letter multiset"]
    return []


def sorted_errors(word: tuple, nf: tuple) -> list[str]:
    """In a free commutative monoid the normal form is the sorted word."""
    if tuple(sorted(word)) != nf:
        return ["free-comm normal form is not the sorted word"]
    return []


def p_tableau(word: tuple) -> tuple:
    """Schensted row insertion; a letter bumps the leftmost strictly greater entry."""
    rows: list[list[int]] = []
    for x in word:
        for row in rows:
            for i, y in enumerate(row):
                if y > x:
                    row[i], x = x, y
                    break
            else:
                row.append(x)
                break
        else:
            rows.append([x])
    return tuple(tuple(r) for r in rows)


def plactic_errors(word: tuple, nf: tuple) -> list[str]:
    """Knuth-equivalent words share their P-tableau."""
    if p_tableau(word) != p_tableau(nf):
        return ["plactic normal form changed the P-tableau"]
    return []


def brute_irr_counts(leads, k: int, length: int) -> list[int]:
    """Count words over k letters with no lead as a subword, per length."""
    return [
        sum(
            1
            for w in itertools.product(range(k), repeat=n)
            if not any(contains_subword(w, lead) for lead in leads)
        )
        for n in range(length + 1)
    ]


def growth_errors(name: str, counts: tuple, leads, k: int, brute_len: int) -> list[str]:
    """Closed forms where they are known, and a brute-force prefix everywhere."""
    errors = []
    L = len(counts) - 1
    if name.startswith("free-comm-"):
        n = int(name.rsplit("-", 1)[1])
        want = [comb(i + n - 1, n - 1) for i in range(L + 1)]
        if list(counts) != want:
            errors.append(f"{name} growth {counts} != {want}")
    elif name == "bicyclic":
        if list(counts) != list(range(1, L + 2)):
            errors.append(f"bicyclic growth {counts} is not 1, 2, ..., L+1")
    elif name == "s3":
        if sum(counts) != 6:
            errors.append(f"S3 growth {counts} does not sum to the group order 6")
    m = min(L, brute_len)
    if list(counts[: m + 1]) != brute_irr_counts(leads, k, m):
        errors.append(f"{name} growth prefix disagrees with a brute-force count")
    return errors


def pbw_errors(name: str, degrees: list[int], d: int, rank: int) -> list[str]:
    """PBW monomial counts per degree.

    U(free Lie algebra of rank k) is the free associative algebra, so degree
    i has k**i monomials; a 3-dimensional Lie algebra has C(i+2, 2) in
    degree i, C(d+3, 3) up to d.
    """
    per = Counter(degrees)
    got = [per.get(i, 0) for i in range(d + 1)]
    if name == "free":
        want = [rank**i for i in range(d + 1)]
    else:
        want = [comb(i + 2, 2) for i in range(d + 1)]
    if got != want or len(degrees) != sum(want):
        return [f"{name} PBW counts {got} != {want}"]
    return []


def completion_errors(job: str, got: dict, want: dict) -> list[str]:
    """Status, basis size and exit code of one completion job."""
    return [
        f"{job}: {key} {got.get(key)!r} != {value!r}"
        for key, value in want.items()
        if got.get(key) != value
    ]
