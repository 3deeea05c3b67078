"""Algebra/monoid/group/Lie presentations, normal forms, and the catalog.

File format (line oriented, ``#`` comments)::

    kind: monoid            # algebra | monoid | group | lie
    generators: q p         # precedence ascending, left to right
    relations:
      p q = 1               # monoid/group: word = word; "1" is the empty word
      h*e - e*h - 2*e       # algebra: one polynomial per line
      bracket h e = 2*e     # lie: left side precedence-descending

Group presentations extend the alphabet with a primed inverse generator
per declared generator (x' after all base generators) and add the two
two-sided inverse relations.

A ``lie`` file is a multiplication table over Q: each ``bracket x_i x_j``
line gives [x_i, x_j] as a linear combination of the generators, and a
bracket the file leaves out is 0.  Its relations are the expansions
x_i·x_j - x_j·x_i - [x_i, x_j], one per pair i > j.  A ``Presentation``
built directly stores the table as ((i, j), rhs) entries and is held to
the file's rules by its constructor.  A table over GF(p)
has no file syntax; build its relations with ``expand_bracket`` on
``LieTerm`` combinations with ``prime_field(p)`` coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complete import (
    CappedCompletionError,
    CompletionConfig,
    CompletionResult,
    STATUS_COMPLETE,
    shirshov_complete,
)
from .ncpoly import NAME, NcPolynomial, PolyParseError, parse_poly
from .rewrite import RuleSet, irr_counts, rewrite_word
from .words import Alphabet, Word, _trusted_word, deglex_key

KINDS = ("algebra", "monoid", "group", "lie")


class PresentationError(ValueError):
    """Malformed presentation text; carries a line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class NonBinomialBasisError(ValueError):
    """Word-level rewriting needs a binomial/monomial basis."""


class _ZeroWord:
    """The absorbing ZERO class of a semigroup with zero; distinct from the empty word."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "0"

    __str__ = __repr__


ZERO = _ZeroWord()


@dataclass(frozen=True)
class Presentation:
    kind: str
    alphabet: Alphabet
    relations: tuple  # kind-specific, see to_algebra_relations

    def __post_init__(self):
        if self.kind == "lie":
            _check_brackets(self.alphabet, self.relations)

    @property
    def base_generators(self) -> tuple[str, ...]:
        """The declared generators: a group's alphabet is them, then their inverses."""
        symbols = self.alphabet.symbols
        return symbols[: len(symbols) // 2] if self.kind == "group" else symbols

    def source(self) -> str:
        """Render back to the presentation file format."""
        lines = [f"kind: {self.kind}"]
        lines.append("generators: " + " ".join(self.base_generators))
        lines.append("relations:")
        if self.kind == "algebra":
            for f in self.relations:
                lines.append(f"  {f}")
        elif self.kind == "lie":
            for (i, j), rhs in self.relations:
                lines.append(f"  bracket {self.alphabet.symbols[i]} {self.alphabet.symbols[j]} = {rhs}")
        else:
            for u, v in self.relations:
                lines.append(f"  {_word_src(u)} = {_word_src(v)}")
        return "\n".join(lines) + "\n"


def _check_brackets(alphabet: Alphabet, relations: tuple) -> None:
    """A lie presentation's entries keep the file's rules, or ValueError names the entry:
    each is ((i, j), rhs) for alphabet indices i > j, each pair once, with rhs a
    polynomial over the alphabet that is linear in the generators."""
    seen = set()
    for entry in relations:
        try:
            (i, j), rhs = entry
        except (TypeError, ValueError):
            raise ValueError(f"bracket entry {entry!r} is not ((i, j), rhs)") from None
        name = f"bracket entry (({i!r}, {j!r}), {rhs})"
        if not (isinstance(i, int) and isinstance(j, int) and 0 <= j < i < len(alphabet)):
            raise ValueError(f"{name}: (i, j) must be alphabet indices with i > j")
        if (i, j) in seen:
            raise ValueError(f"{name}: duplicate bracket entry")
        seen.add((i, j))
        if not isinstance(rhs, NcPolynomial) or rhs.alphabet != alphabet:
            raise ValueError(f"{name}: the right side must be a polynomial over the alphabet")
        if any(n != 1 for n, _ in rhs.ints):
            raise ValueError(f"{name}: the right side must be linear in the generators")


def _word_src(w: Word) -> str:
    return " ".join(w.names()) if len(w) else "1"


@dataclass(frozen=True)
class GrowthSeries:
    counts: tuple[int, ...]


# ---------------------------------------------------------------------------
# parsing


def parse_presentation(text: str) -> Presentation:
    kind = None
    generators: list[str] = []
    gen_line = None
    relation_lines: list[tuple[int, str]] = []
    in_relations = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("kind:"):
            if kind is not None:
                raise PresentationError("duplicate 'kind:' header", lineno)
            kind = line.split(":", 1)[1].strip()
            if kind not in KINDS:
                raise PresentationError(f"unknown kind {kind!r}", lineno)
            in_relations = False
        elif line.startswith("generators:"):
            if gen_line is not None:
                raise PresentationError("duplicate 'generators:' header", lineno)
            generators = line.split(":", 1)[1].split()
            gen_line = lineno
            if not generators:
                raise PresentationError("'generators:' header lists no generators", lineno)
            if "1" in generators:
                raise PresentationError("'1' is the empty word, not a generator name", lineno)
            in_relations = False
        elif line.startswith("relations:"):
            tail = line.split(":", 1)[1].strip()
            if tail:
                raise PresentationError("relations must follow on their own lines", lineno)
            in_relations = True
        elif in_relations:
            relation_lines.append((lineno, line))
        else:
            raise PresentationError(f"unexpected line {line!r}", lineno)
    if kind is None:
        raise PresentationError("missing 'kind:' header")
    if gen_line is None:
        raise PresentationError("missing 'generators:' header")
    for g in generators:
        # polynomials spell a generator as one NAME token, words split at '='
        if kind in ("algebra", "lie") and not NAME.fullmatch(g):
            raise PresentationError(f"generator {g!r} is not a name like x, x_2 or x'", gen_line)
        if "=" in g:
            raise PresentationError(f"generator {g!r} contains '='", gen_line)
    base = tuple(generators)
    symbols = base + tuple(g + "'" for g in base) if kind == "group" else base
    dup = next((g for i, g in enumerate(symbols) if g in symbols[:i]), None)
    if dup is not None:
        raise PresentationError(f"duplicate generator {dup!r}", gen_line)
    alphabet = Alphabet(symbols)

    if kind == "algebra":
        rels = []
        for lineno, line in relation_lines:
            try:
                rels.append(parse_poly(line, alphabet))
            except (PolyParseError, KeyError) as exc:
                raise PresentationError(exc.args[0], lineno) from exc
        return Presentation(kind, alphabet, tuple(rels))

    if kind == "lie":
        table: dict[tuple[int, int], NcPolynomial] = {}
        for lineno, line in relation_lines:
            parts = line.split("=", 1)
            if len(parts) != 2 or not parts[1].strip():
                raise PresentationError("expected 'bracket i j = linear combination'", lineno)
            head = parts[0].split()
            if len(head) != 3 or head[0] != "bracket":
                raise PresentationError("expected 'bracket i j = ...'", lineno)
            try:
                i = alphabet.index(head[1])
                j = alphabet.index(head[2])
            except KeyError as exc:
                raise PresentationError(exc.args[0], lineno) from exc
            if i <= j:
                raise PresentationError(
                    "left side must list the precedence-greater generator first", lineno
                )
            try:
                rhs = parse_poly(parts[1], alphabet)
            except (PolyParseError, KeyError) as exc:
                raise PresentationError(exc.args[0], lineno) from exc
            if any(n != 1 for n, _ in rhs.ints):
                raise PresentationError("bracket right side must be linear in the generators", lineno)
            if (i, j) in table:
                raise PresentationError("duplicate bracket entry", lineno)
            table[(i, j)] = rhs
        return Presentation(kind, alphabet, tuple(sorted(table.items())))

    # monoid / group: word = word
    rels = []
    for lineno, line in relation_lines:
        parts = line.split("=")
        if len(parts) != 2 or not parts[0].strip() or not parts[1].strip():
            raise PresentationError("expected 'word = word'", lineno)
        try:
            u = alphabet.word(parts[0])
            v = alphabet.word(parts[1])
        except KeyError as exc:
            raise PresentationError(exc.args[0], lineno) from exc
        rels.append((u, v))
    return Presentation(kind, alphabet, tuple(rels))


# ---------------------------------------------------------------------------
# translation and queries


def to_algebra_relations(p: Presentation) -> list[NcPolynomial]:
    """Polynomial relations generating the same quotient algebra."""
    if p.kind == "algebra":
        return list(p.relations)
    if p.kind == "lie":
        # [x_i, x_j] = rhs for i > j expands to x_i x_j - x_j x_i - rhs, lead x_i x_j
        A = p.alphabet
        minus_rhs = {ij: {w: -c for w, c in rhs.terms.items()} for ij, rhs in p.relations}
        return [
            NcPolynomial(A, {_trusted_word(A, (i, j)): 1, _trusted_word(A, (j, i)): -1, **minus_rhs.get((i, j), {})})
            for i in range(len(A))
            for j in range(i)
        ]
    pairs = list(p.relations)
    if p.kind == "group":
        n = len(p.base_generators)
        one = p.alphabet.empty()
        for g in range(n):
            pairs += [(_trusted_word(p.alphabet, (g, g + n)), one), (_trusted_word(p.alphabet, (g + n, g)), one)]
    # one binomial per u = v, u = u dropped: the deg-lex greater side is the lead, with coefficient 1
    ordered = (sorted(pair, key=deglex_key, reverse=True) for pair in pairs if pair[0] != pair[1])
    return [NcPolynomial(p.alphabet, {lead: 1, tail: -1}) for lead, tail in ordered]


def complete_presentation(
    p: Presentation, cfg: CompletionConfig | None = None
) -> CompletionResult:
    rels = to_algebra_relations(p)
    if not rels:
        # no effective relations: the free algebra, already complete
        basis = RuleSet()
        basis._over(p.alphabet, None)
        return CompletionResult(basis, STATUS_COMPLETE, [])
    return shirshov_complete(rels, cfg)


def normal_form_word(u: Word, R: CompletionResult):
    """Unique irreducible representative of u's class, or ZERO on absorption."""
    basis = R.certified_basis()
    if R.non_binomial_rule is not None:
        raise NonBinomialBasisError(f"rule {R.non_binomial_rule} is not binomial or monomial")
    basis.query_alphabet(u.alphabet)
    letters = rewrite_word(u.letters, basis)
    return ZERO if letters is None else _trusted_word(u.alphabet, letters)


def word_problem(u: Word, v: Word, R: CompletionResult) -> bool:
    return normal_form_word(u, R) == normal_form_word(v, R)


def growth_series(R: CompletionResult, L: int) -> GrowthSeries:
    """Counts of irreducible words per length 0..L, for any certified basis."""
    return GrowthSeries(tuple(irr_counts(R.certified_basis(), L)))


# ---------------------------------------------------------------------------
# catalog


def _knuth_relations(n: int) -> list[str]:
    letters = [chr(ord("a") + i) for i in range(n)]
    rels = []
    # xzy = zxy for x <= y < z ; yxz = yzx for x < y <= z
    for x in range(n):
        for y in range(x, n):
            for z in range(y + 1, n):
                rels.append(
                    f"{letters[x]} {letters[z]} {letters[y]} = {letters[z]} {letters[x]} {letters[y]}"
                )
    for x in range(n):
        for y in range(x + 1, n):
            for z in range(y, n):
                rels.append(
                    f"{letters[y]} {letters[x]} {letters[z]} = {letters[y]} {letters[z]} {letters[x]}"
                )
    return rels


def _chinese_relations(n: int) -> list[str]:
    letters = [chr(ord("a") + i) for i in range(n)]
    rels = []
    # zyx = zxy = yzx for x <= y <= z, not all equal
    for x in range(n):
        for y in range(x, n):
            for z in range(y, n):
                if x == y == z:
                    continue
                zyx = f"{letters[z]} {letters[y]} {letters[x]}"
                zxy = f"{letters[z]} {letters[x]} {letters[y]}"
                yzx = f"{letters[y]} {letters[z]} {letters[x]}"
                if zyx != zxy:
                    rels.append(f"{zyx} = {zxy}")
                if zyx != yzx:
                    rels.append(f"{zyx} = {yzx}")
    return rels


def catalog(name: str) -> Presentation:
    """Named desk-scale presentations used throughout the test batteries."""
    if name == "bicyclic":
        return parse_presentation(
            "kind: monoid\ngenerators: q p\nrelations:\n  p q = 1\n"
        )
    for prefix, relations in (("plactic-", _knuth_relations), ("chinese-", _chinese_relations)):
        if name.startswith(prefix):
            n = _rank(name, 4)
            body = "\n".join(f"  {r}" for r in relations(n))
            gens = " ".join(chr(ord("a") + i) for i in range(n))
            return parse_presentation(f"kind: monoid\ngenerators: {gens}\nrelations:\n{body}\n")
    if name.startswith("free-comm-"):
        n = _rank(name, 4)
        gens = [f"x{i + 1}" for i in range(n)]
        rels = []
        for j in range(n):
            for i in range(j):
                rels.append(f"  {gens[j]} {gens[i]} = {gens[i]} {gens[j]}")
        return parse_presentation(
            "kind: monoid\ngenerators: " + " ".join(gens) + "\nrelations:\n" + "\n".join(rels) + "\n"
        )
    if name == "sl2":
        return parse_presentation(
            "kind: lie\n"
            "generators: f e h\n"
            "relations:\n"
            "  bracket h e = 2*e\n"
            "  bracket h f = -2*f\n"
            "  bracket e f = h\n"
        )
    if name == "heisenberg-3":
        return parse_presentation(
            "kind: lie\n"
            "generators: x y z\n"
            "relations:\n"
            "  bracket y x = z\n"
            "  bracket z x = 0\n"
            "  bracket z y = 0\n"
        )
    raise KeyError(f"unknown catalog entry {name!r}")


CATALOG_NAMES = (
    "bicyclic",
    "plactic-2",
    "plactic-3",
    "plactic-4",
    "chinese-2",
    "chinese-3",
    "chinese-4",
    "free-comm-2",
    "free-comm-3",
    "free-comm-4",
    "sl2",
    "heisenberg-3",
)


def _rank(name: str, cap: int) -> int:
    try:
        n = int(name.rsplit("-", 1)[1])
    except ValueError:
        raise KeyError(f"unknown catalog entry {name!r}") from None
    if not 1 <= n <= cap:
        raise KeyError(f"rank out of range in {name!r}")
    return n
