
import random
import re
from collections import Counter
from fractions import Fraction

import pytest

from shirshov import (
    Alphabet,
    NcPolynomial,
    Presentation,
    Word,
    ZERO,
    catalog,
    complete_presentation,
    growth_series,
    irr_words,
    normal_form_word,
    parse_poly,
    parse_presentation,
    pbw_basis,
    prime_field,
    shirshov_complete,
    to_algebra_relations,
    word_problem,
)
from shirshov import complete
from shirshov.complete import STATUS_COMPLETE, STATUS_UNIT_IDEAL, CompletionConfig, CompletionResult
from shirshov.present import (
    CATALOG_NAMES,
    CappedCompletionError,
    NonBinomialBasisError,
    PresentationError,
    _ZeroWord,
    _chinese_relations,
)
from shirshov.rewrite import RuleSet, StepLimitExceeded
from shirshov.words import AlphabetMismatchError

from oracles import (
    all_words,
    binomial,
    congruence_classes,
    product_series,
    reference_algebra_relations,
    reference_growth_counts,
)

BICYCLIC_SRC = "kind: monoid\ngenerators: q p\nrelations:\n  p q = 1\n"
LIE_HEAD = "kind: lie\ngenerators: x y z\nrelations:\n"
ALGEBRA_HEAD = "kind: algebra\ngenerators: x y\nrelations:\n"
# (source, line, message): one case per parser rejection branch; a missing
# header has no line to name
PARSE_ERRORS = [
    pytest.param("generators: a\nrelations:\n  a = a\n", None, "missing 'kind:' header", id="no-kind"),
    pytest.param("kind: monoid\nrelations:\n  a = a\n", None, "missing 'generators:' header", id="no-generators"),
    pytest.param(
        "kind: monoid\ngenerators:\nrelations:\n", 2, "'generators:' header lists no generators",
        id="empty-generators",
    ),
    pytest.param(
        "kind: monoid\ngenerators: a\nrelations: a = a\n", 3, "relations must follow on their own lines",
        id="text-after-relations",
    ),
    pytest.param(
        "kind: monoid\ngenerators: a\na a = a\nrelations:\n", 3, "unexpected line 'a a = a'", id="stray-line"
    ),
    pytest.param(
        LIE_HEAD + "  bracket y x z\n", 4, "expected 'bracket i j = linear combination'", id="lie-no-equals"
    ),
    pytest.param(
        LIE_HEAD + "  bracket y x =\n", 4, "expected 'bracket i j = linear combination'", id="lie-empty-right"
    ),
    pytest.param(LIE_HEAD + "  brace y x = z\n", 4, "expected 'bracket i j = ...'", id="lie-head"),
    pytest.param(LIE_HEAD + "  bracket y = z\n", 4, "expected 'bracket i j = ...'", id="lie-short-head"),
    pytest.param(LIE_HEAD + "  bracket w x = z\n", 4, "unknown generator 'w'", id="lie-unknown"),
    pytest.param(
        LIE_HEAD + "  bracket x y = z\n", 4, "left side must list the precedence-greater generator first",
        id="lie-order",
    ),
    pytest.param(
        LIE_HEAD + "  bracket x x = 0\n", 4, "left side must list the precedence-greater generator first",
        id="lie-self",
    ),
    pytest.param(
        LIE_HEAD + "  bracket y x = z*z\n", 4, "bracket right side must be linear in the generators",
        id="lie-quadratic",
    ),
    pytest.param(
        LIE_HEAD + "  bracket y x = 1\n", 4, "bracket right side must be linear in the generators",
        id="lie-constant",
    ),
    pytest.param(LIE_HEAD + "  bracket y x = z +\n", 4, "dangling sign", id="lie-bad-right"),
    pytest.param(
        LIE_HEAD + "  bracket y x = z\n  bracket z x = 0\n  bracket y x = 0\n", 6, "duplicate bracket entry",
        id="lie-duplicate",
    ),
    pytest.param(ALGEBRA_HEAD + "  x y\n", 4, "missing '+', '-' or '*' before 'y'", id="algebra-juxtaposed"),
    pytest.param(ALGEBRA_HEAD + "  x + + y\n", 4, "empty term", id="algebra-empty-term"),
]


# plactic-3 has degree-4 basis elements whose compositions reach degree 7
DEGREE_CAPS = {"plactic-3": 7}


def completed(name):
    cfg = CompletionConfig(max_degree=DEGREE_CAPS.get(name))
    return catalog(name), complete_presentation(catalog(name), cfg)


class TestParsePresentation:
    def test_bicyclic(self):
        p = parse_presentation(BICYCLIC_SRC)
        assert p.kind == "monoid"
        assert p.alphabet.symbols == ("q", "p")
        assert len(p.relations) == 1

    def test_sl2_lie(self):
        p = catalog("sl2")
        assert p.kind == "lie"
        assert [str(f) for f in to_algebra_relations(p)] == [
            "e*f - f*e - h",
            "h*f - f*h + 2*f",
            "h*e - e*h - 2*e",
        ]

    def test_malformed_relation(self):
        with pytest.raises(PresentationError) as exc:
            parse_presentation("kind: monoid\ngenerators: q p\nrelations:\n  p q =\n")
        assert "line 4" in str(exc.value)

    def test_unknown_generator(self):
        with pytest.raises(PresentationError, match="^line 5: unknown generator 'z'$"):
            parse_presentation("kind: monoid\ngenerators: q p\nrelations:\n  q p = p\n  p z = 1\n")
        with pytest.raises(PresentationError, match="^line 4: unknown generator 'z'$"):
            parse_presentation("kind: monoid\ngenerators: q p\nrelations:\n  pz = 1\n")

    def test_words_parse_like_cli_words(self):
        # single-letter generators need no spaces, as in CLI nf/eq words
        p = parse_presentation("kind: monoid\ngenerators: q p\nrelations:\n  pq = 1\n")
        assert p.relations == parse_presentation(BICYCLIC_SRC).relations
        assert p.relations[0][0] == p.alphabet.word("p q")

    @pytest.mark.parametrize("kind", ["monoid", "algebra", "group", "lie"])
    def test_rejects_a_generator_named_1(self, kind):
        # "1" is the empty word in word relations and a number in polynomials
        with pytest.raises(PresentationError, match="^line 2: '1' is the empty word"):
            parse_presentation(f"kind: {kind}\ngenerators: x 1\nrelations:\n  1 = 1\n")

    @pytest.mark.parametrize(
        "kind, gens, dup", [("monoid", "x y x", "x"), ("group", "x y x'", "x'")], ids=["repeat", "inverse"]
    )
    def test_duplicate_generator(self, kind, gens, dup):
        src = f"kind: {kind}\n# generators\ngenerators: {gens}\nrelations:\n  x = y\n"
        with pytest.raises(PresentationError, match=f"^line 3: duplicate generator {dup!r}$"):
            parse_presentation(src)

    @pytest.mark.parametrize(
        "kind, gens, rel, bad",
        [
            ("algebra", "x 2", "x*x - 2", "2"),  # would read as the constant 2
            ("algebra", "x y-z", "x*x", "y-z"),  # would tokenize as y - z
            ("lie", "x y.z", "bracket y.z x = 0", "y.z"),
        ],
        ids=["number", "minus", "dot"],
    )
    def test_polynomial_kinds_need_a_name(self, kind, gens, rel, bad):
        src = f"kind: {kind}\ngenerators: {gens}\nrelations:\n  {rel}\n"
        with pytest.raises(PresentationError, match=f"^line 2: generator {bad!r} is not a name"):
            parse_presentation(src)

    @pytest.mark.parametrize("kind", ["monoid", "group"])
    @pytest.mark.parametrize("bad", ["=", "a=b"])
    def test_word_kinds_reject_equals(self, kind, bad):
        # '=' splits a word relation, so such a generator could never be spelled
        src = f"kind: {kind}\ngenerators: a {bad}\nrelations:\n  a = a a\n"
        with pytest.raises(PresentationError, match=f"^line 2: generator {bad!r} contains '='$"):
            parse_presentation(src)

    def test_names_relations_can_spell(self):
        # NAME is the one definition of a name: parse_poly reads every one
        gens = "x X_1 _y z' w2''"
        p = parse_presentation(f"kind: algebra\ngenerators: {gens}\nrelations:\n  x*X_1 - _y*z' + w2''\n")
        assert {w.names() for w in p.relations[0].terms} == {("x", "X_1"), ("_y", "z'"), ("w2''",)}
        q = parse_presentation("kind: monoid\ngenerators: a+ 2 x.y\nrelations:\n  a+ 2 = x.y\n")
        assert q.alphabet.symbols == ("a+", "2", "x.y")

    @pytest.mark.parametrize("header, second", [("kind", "algebra"), ("generators", "x y")])
    def test_duplicate_header(self, header, second):
        # a second header would otherwise replace the first without a word
        src = f"kind: monoid\ngenerators: a b\n{header}: {second}\nrelations:\n  a b = b a\n"
        with pytest.raises(PresentationError, match=f"^line 3: duplicate '{header}:' header$"):
            parse_presentation(src)

    def test_unknown_kind(self):
        with pytest.raises(PresentationError):
            parse_presentation("kind: ring\ngenerators: x\nrelations:\n")

    def test_comments_and_blank_lines(self):
        src = "# a comment\nkind: monoid\n\ngenerators: q p  # trailing\nrelations:\n  p q = 1\n"
        assert len(parse_presentation(src).relations) == 1

    def test_algebra_kind(self):
        src = "kind: algebra\ngenerators: e f h\nrelations:\n  h*e - e*h - 2*e\n"
        p = parse_presentation(src)
        assert p.kind == "algebra"
        assert len(p.relations) == 1

    @pytest.mark.parametrize("src, line, message", PARSE_ERRORS)
    def test_rejections_name_their_line(self, src, line, message):
        with pytest.raises(PresentationError) as exc:
            parse_presentation(src)
        assert exc.value.line == line
        assert str(exc.value) == (message if line is None else f"line {line}: {message}")

    def test_algebra_source_round_trip(self):
        # fractions and a constant term render back to what parses to the same relations
        src = "kind: algebra\ngenerators: x y\nrelations:\n  2*y*x - 1/3*x*y + 5\n  -3/4*y*y + x - 1/2\n"
        p = parse_presentation(src)
        assert p.source() == (
            "kind: algebra\ngenerators: x y\nrelations:\n  2*y*x - 1/3*x*y + 5\n  -3/4*y*y + x - 1/2\n"
        )
        again = parse_presentation(p.source())
        assert again == p
        assert again.source() == p.source()

    def test_source_round_trip(self):
        for name in ("bicyclic", "plactic-2", "sl2", "free-comm-3"):
            p = catalog(name)
            again = parse_presentation(p.source())
            assert again.kind == p.kind
            assert again.alphabet == p.alphabet
            assert to_algebra_relations(again) == to_algebra_relations(p)


def _seeded_word_presentations(seen=None):
    """60 random monoid and 60 random group presentations over 1-3 generators,
    counting in seen the relations u = u, w = 1 and 1 = w."""
    seen = Counter() if seen is None else seen
    rng = random.Random(20261019)
    out = []
    for kind in ("monoid", "group") * 60:
        gens = "abc"[: rng.randint(1, 3)]
        symbols = list(gens) + ([g + "'" for g in gens] if kind == "group" else [])
        lines = []
        for _ in range(rng.randint(1, 5)):
            u, v = (" ".join(rng.choices(symbols, k=rng.randrange(4))) or "1" for _ in range(2))
            if rng.random() < 0.2:
                v = u
            seen["u = u"] += u == v
            seen["w = 1"] += v == "1" != u
            seen["1 = w"] += u == "1" != v
            lines.append(f"  {u} = {v}\n")
        head = f"kind: {kind}\ngenerators: {' '.join(gens)}\nrelations:\n"
        out.append(parse_presentation(head + "".join(lines)))
    return out


def _seeded_lie_presentations(seen=None):
    """30 random Lie multiplication tables over 2-4 generators, in shuffled
    line order, counting in seen the brackets left out, written 0 and given a
    linear right side."""
    seen = Counter() if seen is None else seen
    rng = random.Random(20261020)
    out = []
    for _ in range(30):
        gens = "wxyz"[: rng.randint(2, 4)]
        lines = []
        for i in range(len(gens)):
            for j in range(i):
                r = rng.random()
                if r < 0.3:
                    seen["omitted"] += 1
                    continue
                terms = [] if r < 0.5 else rng.sample(range(len(gens)), rng.randint(1, len(gens)))
                rhs = " ".join(f"{rng.choice('+-')} {rng.choice(['1', '2', '1/2', '3/4'])}*{gens[t]}" for t in terms)
                seen["linear" if terms else "written 0"] += 1
                lines.append(f"  bracket {gens[i]} {gens[j]} = {rhs or 0}\n")
        rng.shuffle(lines)
        out.append(parse_presentation(f"kind: lie\ngenerators: {' '.join(gens)}\nrelations:\n" + "".join(lines)))
    return out


class TestToAlgebraRelations:
    def test_bicyclic(self):
        p = parse_presentation(BICYCLIC_SRC)
        rels = to_algebra_relations(p)
        assert [str(f) for f in rels] == ["p*q - 1"]

    def test_group_adds_inverses(self):
        src = "kind: group\ngenerators: x\nrelations:\n  x x x = 1\n"
        p = parse_presentation(src)
        rels = {str(f) for f in to_algebra_relations(p)}
        assert rels == {"x*x*x - 1", "x*x' - 1", "x'*x - 1"}

    def test_plactic_2_knuth_instances(self):
        p = catalog("plactic-2")
        rels = {str(f) for f in to_algebra_relations(p)}
        assert rels == {"b*a*a - a*b*a", "b*b*a - b*a*b"}

    def test_matches_polynomial_arithmetic(self):
        # each binomial, built at once with its deg-lex greater side monic, is
        # the polynomial u - v made monic, in the same order, u = u dropped;
        # each Lie relation is x_i·x_j - x_j·x_i - [x_i, x_j] for i > j in order
        def terms(rels):
            return [(f.alphabet, [(w, type(c), c) for w, c in f.terms.items()]) for f in rels]

        seen = Counter()
        presentations = (
            [catalog(name) for name in CATALOG_NAMES]
            + _seeded_word_presentations(seen)
            + _seeded_lie_presentations(seen)
        )
        for p in presentations:
            assert terms(to_algebra_relations(p)) == terms(reference_algebra_relations(p)), p.source()
        assert len(seen) == 6 and min(seen.values()) > 10, seen

    def test_group_built_directly(self):
        # the declared generators are the first half of a group's alphabet
        A = Alphabet(("a", "a'"))
        p = Presentation("group", A, ((A.word("a a"), A.empty()),))
        assert p.base_generators == ("a",)
        assert [str(f) for f in to_algebra_relations(p)] == ["a*a - 1", "a*a' - 1", "a'*a - 1"]
        assert p.source() == "kind: group\ngenerators: a\nrelations:\n  a a = 1\n"
        assert parse_presentation(p.source()) == p

    def test_lie_built_directly_keeps_the_file_rules(self):
        # an entry the parser would reject raises, naming the entry, instead
        # of being dropped or overwritten or printed as an unparsable line
        A = Alphabet(("x", "y", "z"))
        x, z = parse_poly("x", A), parse_poly("z", A)
        bad = [
            ((((0, 1), z),), r"\(\(0, 1\), z\)"),
            ((((1, 0), z), ((1, 0), x)), r"\(\(1, 0\), x\): duplicate"),
            ((((1, 1), z),), r"\(\(1, 1\), z\)"),
            ((((3, 0), z),), r"\(\(3, 0\), z\)"),
            ((((1, 0), parse_poly("x*y", A)),), r"\(\(1, 0\), x\*y\): .* linear"),
            ((((1, 0), parse_poly("x", Alphabet(("x", "y")))),), r"\(\(1, 0\), x\): .* over the alphabet"),
            (((1, 0),), r"\(1, 0\) is not"),
        ]
        for relations, message in bad:
            with pytest.raises(ValueError, match=message):
                Presentation("lie", A, relations)
        p = Presentation("lie", A, (((1, 0), z),))
        assert parse_presentation(p.source()) == p
        assert to_algebra_relations(p) == to_algebra_relations(catalog("heisenberg-3"))

    def test_omitted_brackets_are_zero(self):
        src = "kind: lie\ngenerators: x y z\nrelations:\n  bracket y x = z\n"
        p = parse_presentation(src)
        assert to_algebra_relations(p) == to_algebra_relations(catalog("heisenberg-3"))
        assert p.source() == src

    def test_one_polynomial_per_relation(self, monkeypatch):
        p = parse_presentation("kind: group\ngenerators: a b\nrelations:\n  a a = 1\n  b = b\n  1 = a b a b\n")
        built = []
        init = NcPolynomial.__init__

        def counting_init(self, *args, **kwargs):
            built.append(None)
            init(self, *args, **kwargs)

        monkeypatch.setattr(NcPolynomial, "__init__", counting_init)
        rels = to_algebra_relations(p)
        assert [str(f) for f in rels] == ["a*a - 1", "a*b*a*b - 1", "a*a' - 1", "a'*a - 1", "b*b' - 1", "b'*b - 1"]
        assert len(built) == len(rels)


class TestCatalog:
    def test_counts(self):
        assert len(catalog("bicyclic").relations) == 1
        assert len(catalog("plactic-2").relations) == 2
        assert len(catalog("free-comm-3").relations) == 3

    def test_chinese_2_equals_plactic_2(self):
        # the rank-2 Chinese and plactic monoids coincide
        a = {str(f) for f in to_algebra_relations(catalog("chinese-2"))}
        b = {str(f) for f in to_algebra_relations(catalog("plactic-2"))}
        assert a == b

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            catalog("braid-3")

    def test_rank_cap(self):
        for name in ("plactic-5", "plactic-x"):
            with pytest.raises(KeyError):
                catalog(name)

    def test_all_entries_complete(self):
        for name in ("bicyclic", "plactic-2", "plactic-3", "chinese-2", "chinese-3",
                     "free-comm-2", "free-comm-3", "free-comm-4", "sl2", "heisenberg-3"):
            _, res = completed(name)
            assert res.status == STATUS_COMPLETE, name


class TestNormalForm:
    def test_bicyclic(self):
        p, res = completed("bicyclic")
        assert str(normal_form_word(p.alphabet.word("p q p"), res)) == "p"

    def test_plactic_2(self):
        p, res = completed("plactic-2")
        assert str(normal_form_word(p.alphabet.word("bbaa"), res)) == "baba"

    def test_empty_word(self):
        p, res = completed("bicyclic")
        assert normal_form_word(p.alphabet.empty(), res) == p.alphabet.empty()

    def test_capped_rejected(self):
        from shirshov import shirshov_complete, parse_poly

        A = Alphabet(("y", "x"))
        res = shirshov_complete([parse_poly("x*x - x*y", A)], CompletionConfig(max_degree=4))
        with pytest.raises(CappedCompletionError):
            normal_form_word(A.word("x"), res)
        with pytest.raises(CappedCompletionError):
            growth_series(res, 2)

    def test_non_binomial_basis_rejected(self):
        p, res = completed("sl2")
        first = re.escape(f"rule {res.basis[0]} is not binomial")
        with pytest.raises(NonBinomialBasisError, match=first):
            normal_form_word(p.alphabet.word("e f"), res)
        # growth reads only the leads, so any certified basis answers it
        for name in ("sl2", "heisenberg-3"):
            _, res = completed(name)
            per_len = [0] * 7
            for w in irr_words(res.basis, 6):
                per_len[len(w)] += 1
            assert growth_series(res, 6).counts == tuple(per_len) == (1, 3, 6, 10, 15, 21, 28)

    def test_shape_checked_once_per_result(self, monkeypatch):
        p, res = completed("chinese-3")
        calls = []
        shape = complete._is_binomial_shape
        monkeypatch.setattr(complete, "_is_binomial_shape", lambda terms, p: calls.append(terms) or shape(terms, p))
        for text in ("c b a", "c c b a a", "a b c"):
            normal_form_word(p.alphabet.word(text), res)
        growth_series(res, 3)
        assert len(calls) == len(res.basis)

    def test_zero_outcome_distinct_from_empty(self):
        # a monomial relation absorbs: x y = 0-like quotient via x*y rule
        from shirshov import shirshov_complete, parse_poly

        A = Alphabet(("x", "y"))
        res = shirshov_complete([parse_poly("x*y", A)])
        nf = normal_form_word(A.word("xxyy"), res)
        assert nf is ZERO
        assert nf != A.empty()
        assert str(nf) == "0"

    def test_zero_singleton(self):
        assert _ZeroWord() is ZERO

    def test_foreign_alphabet_rejected(self):
        p, res = completed("bicyclic")
        for foreign in (Alphabet("xy").word("x y x"), Alphabet("uvw").word("w")):
            with pytest.raises(AlphabetMismatchError):
                normal_form_word(foreign, res)
            with pytest.raises(AlphabetMismatchError):
                word_problem(foreign, p.alphabet.word("p"), res)

    def test_step_cap_read_per_query(self, monkeypatch):
        p, res = completed("bicyclic")
        monkeypatch.setenv("GS_MAX_STEPS", "1")
        assert normal_form_word(p.alphabet.word("p q p"), res) == p.alphabet.word("p")
        with pytest.raises(StepLimitExceeded):
            normal_form_word(p.alphabet.word("p p q q"), res)


class TestWordProblem:
    def test_plactic_defining_relation(self):
        p, res = completed("plactic-2")
        assert word_problem(p.alphabet.word("bba"), p.alphabet.word("bab"), res)

    def test_bicyclic_qp_irreducible(self):
        p, res = completed("bicyclic")
        assert not word_problem(p.alphabet.word("q p"), p.alphabet.empty(), res)

    def test_reflexive(self):
        p, res = completed("plactic-2")
        assert word_problem(p.alphabet.word("ab"), p.alphabet.word("ab"), res)

    def test_group_x_cubed(self):
        src = "kind: group\ngenerators: x\nrelations:\n  x x x = 1\n"
        p = parse_presentation(src)
        res = complete_presentation(p)
        assert res.status == STATUS_COMPLETE
        # exactly 3 classes; deg-lex orients x*x -> x', so the inverse
        # generator is the degree-2 normal form
        nf_inv = normal_form_word(Word(p.alphabet, (0, 0)), res)
        assert str(nf_inv) == "x'"
        nfs = set()
        for n in range(4):
            for w in all_words(Alphabet(("x",)), n):
                lifted = Word(p.alphabet, w.letters)
                nfs.add(normal_form_word(lifted, res))
        assert len(nfs) == 3


class TestUnitIdeal:
    def test_every_query_answers(self):
        # x = 1 and x = 0: the quotient is zero, so Irr(S) is empty
        p = parse_presentation("kind: algebra\ngenerators: x y\nrelations:\n  x - 1\n  x\n")
        res = complete_presentation(p)
        assert res.status == STATUS_UNIT_IDEAL
        assert normal_form_word(p.alphabet.word("x y"), res) is ZERO
        assert normal_form_word(p.alphabet.empty(), res) is ZERO
        assert word_problem(p.alphabet.word("x"), p.alphabet.word("y"), res)
        assert growth_series(res, 3).counts == (0, 0, 0, 0)
        assert pbw_basis(res, 3) == []


class TestGrowthSeries:
    def test_bicyclic(self):
        _, res = completed("bicyclic")
        assert growth_series(res, 3).counts == (1, 2, 3, 4)

    def test_free_monoid(self):
        # a vacuous relation leaves the free monoid on two letters
        p = parse_presentation("kind: monoid\ngenerators: x y\nrelations:\n  x = x\n")
        res = complete_presentation(p)
        assert growth_series(res, 2).counts == (1, 2, 4)

    @pytest.mark.parametrize(
        "name, cap",
        [(n, None) for n in CATALOG_NAMES if catalog(n).kind == "monoid"] + [("plactic-3", 7)],
    )
    def test_catalog_matches_listed_irr(self, name, cap):
        res = complete_presentation(catalog(name), CompletionConfig(max_degree=cap))
        if res.status != STATUS_COMPLETE:
            pytest.skip(f"{name} at cap {cap} is {res.status}")
        assert growth_series(res, 8).counts == reference_growth_counts(res.basis, 8)

    def test_s3_group_matches_listed_irr(self):
        src = "kind: group\ngenerators: a b\nrelations:\n  a a = 1\n  b b b = 1\n  a b a = b b\n"
        res = complete_presentation(parse_presentation(src))
        counts = growth_series(res, 8).counts
        assert counts == reference_growth_counts(res.basis, 8)
        assert sum(counts) == 6  # |S3|

    def test_random_monomial_sets_match_listed_irr(self):
        # equal leads and a retired rule: only the active leads count
        rng = random.Random(20261018)
        for _ in range(100):
            k = rng.randint(1, 3)
            A = Alphabet("xyz"[:k])
            leads = [tuple(rng.randrange(k) for _ in range(rng.randint(1, 4))) for _ in range(rng.randint(1, 5))]
            leads.append(rng.choice(leads))
            S = RuleSet(NcPolynomial.monomial(Word(A, lead)) for lead in leads)
            S.retire(rng.randrange(len(S)))
            res = CompletionResult(S, STATUS_COMPLETE, [])
            assert growth_series(res, 7).counts == reference_growth_counts(S, 7), leads

    def test_unit_ideal_matches_listed_irr(self):
        p = parse_presentation("kind: algebra\ngenerators: x y\nrelations:\n  x - 1\n  x\n")
        res = complete_presentation(p)
        assert res.status == STATUS_UNIT_IDEAL
        assert growth_series(res, 5).counts == reference_growth_counts(res.basis, 5) == (0,) * 6

    def test_closed_forms_at_long_lengths(self):
        _, res = completed("bicyclic")
        assert growth_series(res, 200).counts == tuple(n + 1 for n in range(201))
        _, res = completed("free-comm-4")
        assert growth_series(res, 60).counts == tuple(binomial(n + 3, 3) for n in range(61))
        free = complete_presentation(parse_presentation("kind: monoid\ngenerators: x y\nrelations:\n  x = x\n"))
        assert growth_series(free, 64).counts == tuple(2**n for n in range(65))

    def test_negative_length_rejected(self):
        _, res = completed("bicyclic")
        with pytest.raises(ValueError, match="degree bound must be >= 0"):
            growth_series(res, -1)

    def test_plactic_2_matches_closure_oracle(self):
        # Knuth relations preserve length, so irreducible-word counts per
        # length equal the Knuth-class counts per length
        p, res = completed("plactic-2")
        classes = congruence_classes(p.alphabet, p.relations, 3)
        gs = growth_series(res, 3)
        for ell in range(4):
            exact = sum(1 for c in classes if all(len(w) == ell for w in c))
            assert gs.counts[ell] == exact


def _chinese(n: int):
    """chinese-n at any rank; the catalog stops at rank 4."""
    gens = " ".join(chr(ord("a") + i) for i in range(n))
    body = "".join(f"  {r}\n" for r in _chinese_relations(n))
    return parse_presentation(f"kind: monoid\ngenerators: {gens}\nrelations:\n{body}")


class TestClosedFormGrowth:
    """The Chinese and plactic monoids of rank n both count the semistandard
    tableaux over n letters (Cassaigne et al., IJAC 2001; Knuth 1970), whose
    series by Littlewood's identity is (1 - t)^-n (1 - t^2)^-n(n-1)/2: an
    end-to-end check of completion, the lead automaton and irr_counts at ranks
    congruence_classes cannot reach."""

    @pytest.mark.parametrize("name", ["chinese-3", "chinese-4", "chinese-5", "chinese-6", "plactic-3"])
    def test_growth_to_length_12(self, name):
        n = int(name.rsplit("-", 1)[1])
        p = _chinese(n) if n > 4 else catalog(name)
        res = complete_presentation(p, CompletionConfig(max_degree=7))
        assert res.status == STATUS_COMPLETE
        series = product_series([1] * n + [2] * (n * (n - 1) // 2), 12)
        assert growth_series(res, 12).counts == tuple(series)


class TestChurchRosser:
    @pytest.mark.parametrize("name", ["plactic-2", "plactic-3", "chinese-3", "bicyclic"])
    def test_all_single_step_successors_agree(self, name):
        p, res = completed(name)
        basis = res.basis
        maxlen = 5 if name != "bicyclic" else 6
        for n in range(maxlen + 1):
            for w in all_words(p.alphabet, n):
                target = normal_form_word(w, res)
                for pos in range(len(w)):
                    for ridx, lead in enumerate(basis.leads):
                        if w.letters[pos : pos + len(lead)] == lead:
                            rule = basis[ridx]
                            repl = NcPolynomial.monomial(w[:pos]) * (
                                NcPolynomial.monomial(w[pos:pos + len(lead)]) - rule
                            ) * NcPolynomial.monomial(w[pos + len(lead):])
                            if repl.is_zero():
                                assert target is ZERO
                                continue
                            succ = repl.leading()[0]
                            assert normal_form_word(succ, res) == target


class TestOracleEquivalence:
    @pytest.mark.parametrize("name", ["plactic-2", "plactic-3", "chinese-2", "chinese-3"])
    def test_partitions_match_closure(self, name):
        p, res = completed(name)
        max_len = 6 if name.endswith("2") else 5
        classes = congruence_classes(p.alphabet, p.relations, max_len)
        by_nf: dict = {}
        for n in range(max_len + 1):
            for w in all_words(p.alphabet, n):
                key = normal_form_word(w, res)
                key = key.letters if key is not ZERO else ZERO
                by_nf.setdefault(key, set()).add(w.letters)
        ours = set(frozenset(c) for c in by_nf.values())
        assert ours == classes


class TestBinomialClosure:
    def test_catalog_bases_are_binomial(self):
        for name in ("bicyclic", "plactic-2", "plactic-3", "chinese-3", "free-comm-3"):
            res = complete_presentation(catalog(name))
            for rule in res.basis:
                coeffs = list(rule.terms.values())
                assert len(coeffs) in (1, 2)
                if len(coeffs) == 2:
                    assert coeffs == [1, -1]

    # Compositions and reductions of binomials are binomials, so completion
    # checks no rule's shape; every rule it installs, retired ones included,
    # must still be a binomial lead - u or a monomial.

    @pytest.fixture
    def installed(self, monkeypatch):
        """(rule set, index) of every rule installed while the test runs."""
        seen = []
        install = RuleSet._install

        def spy(S, f):
            idx = install(S, f)
            seen.append((S, idx))
            return idx

        monkeypatch.setattr(RuleSet, "_install", spy)
        return seen

    @staticmethod
    def _assert_binomial(installed) -> int:
        """Assert the shape of every installed rule; return how many were retired."""
        assert installed
        for S, idx in installed:
            assert complete._is_binomial_shape(S[idx].ints, S.modulus), S[idx]
        sets = {id(S): S for S, _ in installed}.values()
        return sum(len(S) - len(S.active) for S in sets)

    def test_catalog_installs_only_binomials(self, installed):
        names = [name for name in CATALOG_NAMES if catalog(name).kind == "monoid"]
        assert len(names) == 10
        for name in names:
            complete_presentation(catalog(name))
        self._assert_binomial(installed)

    def test_seeded_word_presentations_install_only_binomials(self, installed):
        cfg = CompletionConfig(max_degree=6, max_rules=40)
        for p in _seeded_word_presentations():
            complete_presentation(p, cfg)
        assert self._assert_binomial(installed) > 10

    @pytest.mark.parametrize("field", [Fraction, prime_field(32003)], ids=["Q", "GF32003"])
    def test_seeded_binomial_algebras_install_only_binomials(self, installed, field):
        # relations c·u and c·(u - v) with c != 1, which completion makes monic
        rng = random.Random(20261020)
        cfg = CompletionConfig(max_degree=6, max_rules=40)
        seen = Counter()
        for _ in range(80):
            A = rng.choice((Alphabet("ab"), Alphabet("abc")))
            rels = []
            for _ in range(rng.randint(1, 4)):
                u, v = (Word(A, rng.choices(range(len(A)), k=rng.randint(0, 3))) for _ in range(2))
                c = field(rng.choice((-6, -2, -1, 2, 3, 5)))
                monomial = u == v or rng.random() < 0.25
                seen["monomial"] += monomial
                rels.append(NcPolynomial(A, {u: c} if monomial else {u: c, v: -c}))
            res = shirshov_complete(rels, cfg)
            seen[res.status] += 1
        assert self._assert_binomial(installed) > 10
        assert min(seen[k] for k in ("monomial", "complete", "unit_ideal")) > 5, seen
