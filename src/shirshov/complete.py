"""Composition computation and Shirshov's completion loop.

Saturates a relation set by adjoining reduced nonzero compositions until
every composition is trivial, or a degree/rule cap intervenes.  A capped
run is never reported as complete.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass, field
from functools import cached_property

from .ncpoly import NcPolynomial, render_poly
from .rewrite import RuleSet, _reduce_ints, _residue, _rewrite
from .words import Overlap, Word, _inclusions, _intersections, _trusted_word

STATUS_COMPLETE = "complete"
STATUS_CAPPED_DEGREE = "capped_degree"
STATUS_CAPPED_RULES = "capped_rules"
STATUS_UNIT_IDEAL = "unit_ideal"
# Irr(S) is a linear basis of the quotient (Composition-Diamond lemma); empty for the unit ideal
CERTIFYING_STATUSES = (STATUS_COMPLETE, STATUS_UNIT_IDEAL)


class EmptyInputError(ValueError):
    """Completion called with no relations."""


class CappedCompletionError(ValueError):
    """A query needs a certified basis, and the completion stopped at a cap."""


@dataclass(frozen=True)
class Composition:
    """An S-polynomial of rules ``source`` = (f, g) of ``basis`` at an lcm w of their leads.

    Its value, f·b - a·g for an intersection and f - a·g·b for an inclusion,
    is w's rewrite by g at a minus its rewrite by f at the front: ``ints``
    forms it on integer forms, and ``value`` builds it only when read.
    """

    source: tuple[int, int]
    overlap: Overlap
    basis: RuleSet = field(compare=False, repr=False)

    @property
    def w(self) -> Word:
        return _trusted_word(self.basis.alphabet, self.overlap.w)

    def ints(self) -> tuple[dict, int]:
        """(terms, D): the value as numerators over D, as ``_reduce_ints`` takes it."""
        i, j = self.source
        ov = self.overlap
        fb, gb = (ov.b, ()) if ov.kind == "intersection" else ((), ov.b)
        terms: dict = {}
        D = _rewrite(self.basis, terms, 1, 1, ov.a, gb, j)
        return terms, _rewrite(self.basis, terms, D, -D, (), fb, i)

    @property
    def value(self) -> NcPolynomial:
        terms, D = self.ints()
        S = self.basis
        return NcPolynomial._from_ints(S.alphabet, S.field, dict(sorted(terms.items(), reverse=True)), D)


@dataclass(frozen=True)
class CompositionRecord:
    """A composition and its residue, None when w lies over the cap."""

    composition: Composition
    residue: NcPolynomial | None


@dataclass
class CompletionConfig:
    max_degree: int | None = None  # None: max(6, largest input degree)
    max_rules: int | None = None


def _stats(processed: int = 0, skipped: int = 0, added: int = 0, steps: int = 0) -> dict:
    return {
        "compositions_processed": processed,
        "compositions_skipped": skipped,
        "rules_added": added,
        "reduction_steps": steps,
    }


def _is_binomial_shape(terms: dict, p: int) -> bool:
    """Numerators by word over Q (p = 0) or GF(p): a monomial, or lead - u once monic."""
    n = sum(terms.values())
    return len(terms) == 1 or (len(terms) == 2 and (n % p if p else n) == 0)


@dataclass
class CompletionResult:
    """For ``complete``, ``basis`` is the reduced GS basis, unique for the ideal
    and the order: the loop's rules, tails reduced.  A capped status keeps the
    loop's rules unreduced; ``unit_ideal`` has the rule 1.  A certificate's
    ``source`` indices number the loop's rules, not ``basis``'s."""

    basis: RuleSet
    status: str
    certificates: list[CompositionRecord]
    stats: dict = field(default_factory=_stats)

    def certified_basis(self) -> RuleSet:
        """The basis, when the status certifies Irr(S); else CappedCompletionError."""
        if self.status not in CERTIFYING_STATUSES:
            raise CappedCompletionError(f"completion stopped at {self.status!r}: no certified basis")
        return self.basis

    @cached_property
    def non_binomial_rule(self) -> NcPolynomial | None:
        """The first rule that is neither a binomial lead - tail nor a monomial."""
        S = self.basis
        return next((f for f in S.rules if not _is_binomial_shape(f.ints, S.modulus)), None)

    def ordered_basis(self) -> list[NcPolynomial]:
        """The basis's rules in ascending deg-lex order of their leads (each rule's first ``ints`` key)."""
        return sorted(self.basis.rules, key=lambda f: next(iter(f.ints)))

    def to_json_dict(self) -> dict:
        return {
            "format": 1,
            "status": self.status,
            "basis": [{"lead": str(f.leading()[0]), "poly": render_poly(f)} for f in self.ordered_basis()],
            "certificates": [
                {
                    "source": list(rec.composition.source),
                    "kind": rec.composition.overlap.kind,
                    "w": str(rec.composition.w),
                    "value": render_poly(rec.composition.value),
                    "residue": render_poly(rec.residue),
                }
                for rec in self.certificates
            ],
            "stats": self.stats,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=False)


def compositions(S: RuleSet, i: int, j: int) -> list[Composition]:
    """All intersection and inclusion compositions of rules i and j of S.

    Both orientations are produced; for a self-pair only the genuinely
    distinct overlaps appear.  Trivial lcm's (u·c·v) are never generated:
    over a field their compositions are trivial.

    A pair whose leads cannot overlap returns [] before any scan.  An
    intersection u·b = a·v needs v[0] in u[1:] and u[-1] in v[:-1], v·u the
    mirror, and an inclusion one lead inside the other.  The test searches
    ``S.lead_strs``, one chr per letter, with bounded ``str.find`` and ``in``:
    a factor search in C that allocates nothing, which letter tuples lack.
    Most monoid pairs fail it: of chinese-6's 4,095 pairs at cap 7, 815 pass
    and 750 have compositions.  A pair that passes is scanned as before.
    """
    u, v = S.leads[i], S.leads[j]
    if not u or not v:
        return []  # an empty lead reduces every word: all compositions are trivial
    s, t = S.lead_strs[i], S.lead_strs[j]
    if not (
        (s.find(t[0], 1) >= 0 and t.find(s[-1], 0, -1) >= 0)
        or i != j and ((t.find(s[0], 1) >= 0 and s.find(t[-1], 0, -1) >= 0) or s in t or t in s)
    ):
        return []
    # leading words cancel at w = fw·b = a·gw, or at w = fw = a·gw·b
    fg, gf = (i, j), (j, i)
    found = [(fg, _intersections(u, v))]
    if i != j:
        found += [(gf, _intersections(v, u)), (fg, _inclusions(u, v)), (gf, _inclusions(v, u))]
        if u == v:  # equal leads of distinct rules: inclusion with a = b = 1
            found.append((fg, [Overlap("inclusion", (), (), u)]))
    # a self-pair has no inclusion: _inclusions(u, u) skips the identity
    return [Composition(source, ov, S) for source, overlaps in found for ov in overlaps]


def walk_compositions(S: RuleSet, max_degree: int | None = None):
    """A CompositionRecord per composition of every active rule pair i <= j of S, in order.

    Its residue is None, and nothing is reduced, when w exceeds max_degree.
    """
    if max_degree is not None and max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    indices = list(S.active)
    for a, i in enumerate(indices):
        for j in indices[a:]:
            for comp in compositions(S, i, j):
                over = max_degree is not None and len(comp.overlap.w) > max_degree
                yield CompositionRecord(comp, None if over else _residue(S, *comp.ints())[0])


class _Loop:
    """State of one completion run.

    ``basis`` is the run's one rule index: it holds every rule ever installed,
    and retired rules stop matching, so reductions see only its active rules.
    """

    def __init__(self, basis: RuleSet):
        self.basis = basis
        self.heap: list = []
        self.seq = 0
        self.certificates: list[CompositionRecord] = []
        self.skipped = 0
        self.reduction_steps = 0
        self.unit = False

    def push_compositions(self, idx: int) -> list[int]:
        """Queue rule idx's compositions with every active rule, and return the
        active rules whose lead properly contains idx's lead, ascending."""
        stale: dict[int, None] = {}
        # idx is the newest rule, so its self-pair comes last
        for other in self.basis.active:
            for comp in compositions(self.basis, idx, other):
                w = comp.overlap.w
                self.seq += 1
                heapq.heappush(self.heap, (((len(w), w), comp.source, self.seq), comp))
                if comp.source == (other, idx) and comp.overlap.kind == "inclusion":
                    stale[other] = None  # other's lead is a·lead·b with a·b nonempty
        return list(stale)

    def add_rule(self, residue: NcPolynomial) -> None:
        """Install a nonzero residue as a monic rule, spawn compositions, interreduce."""
        S = self.basis
        if residue.degree == 0:  # a nonzero constant
            self.unit = True
            return
        idx = S._install(residue)
        stale = self.push_compositions(idx)
        for i in stale:
            S.retire(i)
        for i in stale:
            self.adjoin(dict(S[i].ints), S[i].den)

    def adjoin(self, terms: dict, D: int) -> NcPolynomial:
        """Reduce terms over D, adjoin a nonzero residue, and return it.
        Modulo the unit ideal every residue is zero: nothing is reduced."""
        if self.unit:
            return self.basis.zero
        residue, steps = _residue(self.basis, terms, D)
        self.reduction_steps += steps
        if residue.ints:
            self.add_rule(residue)
        return residue


def _tail_reduced(S: RuleSet, i: int) -> NcPolynomial:
    """Rule i of a GS basis S, its tail replaced by the tail's normal form modulo S.
    Over the active rules, whose leads are minimal, these make the reduced GS
    basis.  S is not changed: certificates read its rules."""
    L, us, ns = S.tails[i]
    tail, D, _ = _reduce_ints(S, {(len(u), u): n for u, n in zip(us, ns)}, L)
    return NcPolynomial._from_ints(S.alphabet, S.field, {(len(S.leads[i]), S.leads[i]): D, **tail}, D)


def shirshov_complete(relations, cfg: CompletionConfig | None = None) -> CompletionResult:
    """Run Shirshov's completion on a list of nonzero polynomials."""
    # every relation is checked before the first reduction
    S = RuleSet()
    inputs = [S._admit(f) for f in relations]
    if not inputs:
        raise EmptyInputError("completion needs at least one relation")
    if cfg is None:
        cfg = CompletionConfig()
    if cfg.max_rules is not None and cfg.max_rules < 0:
        raise ValueError("max_rules must be >= 0")
    max_in = max(f.degree for f in inputs)
    max_degree = cfg.max_degree if cfg.max_degree is not None else max(6, max_in)
    if max_degree < max_in:
        raise ValueError("max_degree must cover the input relation degrees")
    loop = _Loop(S)

    # install inputs one at a time, reducing each against what is already there
    for f in inputs:
        loop.adjoin(dict(f.ints), f.den)

    def rule_cap_hit() -> bool:
        return cfg.max_rules is not None and len(loop.basis.active) > cfg.max_rules

    active = S.active
    while loop.heap and not loop.unit:
        (_, comp) = heapq.heappop(loop.heap)
        if comp.source[0] not in active or comp.source[1] not in active:
            continue
        if len(comp.overlap.w) > max_degree:
            loop.skipped += 1
            continue
        residue = loop.adjoin(*comp.ints())
        loop.certificates.append(CompositionRecord(comp, residue))
        if residue.ints and rule_cap_hit():
            break

    if loop.unit:
        status = STATUS_UNIT_IDEAL
    elif rule_cap_hit():
        status = STATUS_CAPPED_RULES
    # An emptied heap certifies: each final pair's compositions were popped
    # while both rules were active, and one within the cap was trivial modulo
    # (S, w) then and stays so (Composition-Diamond lemma).  The heap pops by
    # |w| first, so over-cap pops come last and change no rule: loop.skipped
    # is the final basis's over-cap count.
    elif loop.skipped:
        status = STATUS_CAPPED_DEGREE
    else:
        status = STATUS_COMPLETE
    basis = RuleSet()
    basis._over(S.alphabet, S.field)
    for i in () if loop.unit else S.active:
        basis._install(_tail_reduced(S, i) if status == STATUS_COMPLETE else S[i])
    if loop.unit:
        basis._install(NcPolynomial._from_ints(S.alphabet, S.field, {(0, ()): 1}))  # the rule 1
    stats = _stats(len(loop.certificates), loop.skipped, len(S), loop.reduction_steps)
    return CompletionResult(basis, status, loop.certificates, stats)


def is_gs_basis(S: RuleSet, max_degree: int | None = None):
    """(verdict, failing compositions with nonzero residues)."""
    failures = [rec for rec in walk_compositions(S, max_degree) if rec.residue and rec.residue.ints]
    return (not failures, failures)
