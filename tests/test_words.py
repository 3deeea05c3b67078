import dataclasses
import random
from fractions import Fraction

import pytest

from shirshov import (
    Alphabet,
    NcPolynomial,
    Word,
    find_inclusions,
    find_intersections,
)
from shirshov.words import AlphabetMismatchError, _trusted_word

from oracles import (
    all_words,
    brute_inclusions,
    brute_intersections,
    cmp_deglex,
    cmp_lex_prefix_greater,
)

AB = Alphabet(("x", "y"))
ABC = Alphabet(("a", "b", "c"))
BA = Alphabet(("a", "b"))


def w(text, alphabet=AB):
    return alphabet.word(text)


class TestAlphabet:
    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            Alphabet(("x", "x"))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Alphabet(())

    def test_precedence_is_declaration_order(self):
        assert ABC.index("a") < ABC.index("b") < ABC.index("c")


class TestWordBoundary:
    """The public constructor checks its letters; the engine's trusted one does not."""

    def test_out_of_range_rejected(self):
        for letters in ((2,), (-1,), (0, 1, 5)):
            with pytest.raises(ValueError, match="out of range"):
                Word(AB, letters)

    def test_non_int_letters_rejected(self):
        for letters in ((1.0,), ("x",), (None,), (True,), (0, Fraction(1))):
            with pytest.raises(TypeError, match="not an int"):
                Word(AB, letters)

    def test_any_sequence_is_stored_as_a_tuple(self):
        u = Word(AB, [0, 1])
        assert u.letters == (0, 1) and type(u.letters) is tuple
        assert u == w("xy") and hash(u) == hash(w("xy"))
        assert NcPolynomial.monomial(u) == NcPolynomial.monomial(w("xy"))
        assert Word(AB, iter([1, 0])) == w("yx")
        assert Word(AB, range(2)) == w("xy")

    def test_frozen_and_slotted(self):
        u = w("xy")
        with pytest.raises(dataclasses.FrozenInstanceError):
            u.letters = (1,)
        assert not hasattr(u, "__dict__")

    def test_hash_is_the_letters_hash(self):
        assert hash(w("xyx")) == hash((0, 1, 0))
        assert hash(w("")) == hash(())

    def test_equal_letters_over_different_alphabets(self):
        u, v = Word(AB, (0, 1)), Word(BA, (0, 1))
        assert u != v and hash(u) == hash(v)
        d = {u: 1, v: 2}
        assert len(d) == 2 and d[u] == 1 and d[v] == 2
        assert len({u, v, _trusted_word(AB, (0, 1))}) == 2
        # an equal alphabet built apart gives an equal word
        assert Word(Alphabet(("x", "y")), (0, 1)) == u

    def test_trusted_word_equals_the_checked_one(self):
        t = _trusted_word(AB, (1, 0))
        c = Word(AB, (1, 0))
        assert t == c and hash(t) == hash(c) and str(t) == str(c) == "yx"
        assert t.alphabet is AB and type(t) is Word

    def test_products_and_slices_keep_the_alphabet(self):
        u = w("xyy")
        assert u * w("x") == Word(AB, (0, 1, 1, 0))
        assert u[1:] == Word(AB, (1, 1)) and u[0] == Word(AB, (0,))
        assert (u * u)[2:4].alphabet is AB
        with pytest.raises(AlphabetMismatchError):
            u * w("a", ABC)
        with pytest.raises(IndexError):
            u[3]


class TestDeglex:
    def test_shorter_is_less(self):
        assert cmp_deglex(w(""), w("x")) == -1

    def test_equal_length_first_letter(self):
        assert cmp_deglex(w("xy"), w("yx")) == -1

    def test_longer_is_greater(self):
        assert cmp_deglex(w("xyx"), w("yx")) == 1

    def test_mismatched_alphabets(self):
        with pytest.raises(AlphabetMismatchError):
            cmp_deglex(w("x"), w("a", ABC))


class TestLexPrefixGreater:
    def test_first_letter_decides(self):
        assert cmp_lex_prefix_greater(w("a", ABC), w("ba", ABC)) == -1

    def test_proper_prefix_is_greater(self):
        assert cmp_lex_prefix_greater(w("b", ABC), w("ba", ABC)) == 1

    def test_equal(self):
        assert cmp_lex_prefix_greater(w("ba", ABC), w("ba", ABC)) == 0


class TestOrderProperties:
    """Random sampling checks of admissibility, totality, antisymmetry."""

    def _random_word(self, rng, max_len=5):
        n = rng.randrange(max_len + 1)
        return Word(AB, tuple(rng.randrange(2) for _ in range(n)))

    def test_admissibility(self):
        rng = random.Random(7)
        for _ in range(10_000):
            a, b, u, v = (self._random_word(rng) for _ in range(4))
            if cmp_deglex(u, v) == -1:
                assert cmp_deglex(a * u * b, a * v * b) == -1

    def test_totality_antisymmetry(self):
        rng = random.Random(8)
        for cmp in (cmp_deglex, cmp_lex_prefix_greater):
            for _ in range(2_000):
                u = self._random_word(rng)
                v = self._random_word(rng)
                c1, c2 = cmp(u, v), cmp(v, u)
                assert c1 == -c2
                assert (c1 == 0) == (u == v)


class TestIntersections:
    def test_single_letter_overlap(self):
        he = Alphabet(("e", "f", "h"))
        out = find_intersections(he.word("he"), he.word("ef"))
        assert len(out) == 1
        ov = out[0]
        assert ov.a == he.word("h").letters and ov.b == he.word("f").letters
        assert ov.w == he.word("hef").letters

    def test_self_overlap(self):
        out = find_intersections(w("xx"), w("xx"))
        assert len(out) == 1
        assert out[0].w == w("xxx").letters

    def test_no_common_boundary(self):
        zx = Alphabet(("x", "y", "z"))
        assert find_intersections(zx.word("xy"), zx.word("zx")) == []

    def test_ordered_by_b_ascending(self):
        out = find_intersections(w("xyxy"), w("xyxy"))
        lens = [len(ov.b) for ov in out]
        assert lens == sorted(lens)


class TestInclusions:
    def test_prefix_occurrence(self):
        out = find_inclusions(w("aba", ABC), w("ab", ABC))
        assert len(out) == 1
        assert out[0].a == () and out[0].b == ABC.word("a").letters

    def test_middle_occurrence(self):
        out = find_inclusions(w("xyx"), w("y"))
        assert len(out) == 1
        assert out[0].a == w("x").letters and out[0].b == w("x").letters

    def test_none(self):
        assert find_inclusions(w("ab", ABC), w("ba", ABC)) == []

    def test_identity_occurrence_excluded(self):
        assert find_inclusions(w("xy"), w("xy")) == []


class TestOverlapReconstruction:
    def test_every_overlap_reconstructs_w(self):
        rng = random.Random(11)
        for _ in range(500):
            ulen = rng.randrange(1, 6)
            vlen = rng.randrange(1, 6)
            u = Word(AB, tuple(rng.randrange(2) for _ in range(ulen)))
            v = Word(AB, tuple(rng.randrange(2) for _ in range(vlen)))
            for ov in find_intersections(u, v):
                assert u.letters + ov.b == ov.a + v.letters == ov.w
                assert len(ov.a) and len(ov.b)
                assert len(ov.w) < len(u) + len(v)
            for ov in find_inclusions(u, v):
                assert ov.a + v.letters + ov.b == u.letters == ov.w

    def test_exhaustive_against_position_scan(self):
        words = [wd for n in range(1, 7) for wd in all_words(AB, n)]
        rng = random.Random(3)
        sample = rng.sample([(u, v) for u in words for v in words], 4000)
        for u, v in sample:
            got = [(ov.a, ov.b) for ov in find_intersections(u, v)]
            assert sorted(got) == sorted(brute_intersections(u, v))
            got = [(ov.a, ov.b) for ov in find_inclusions(u, v)]
            assert sorted(got) == sorted(brute_inclusions(u, v))


class TestRendering:
    def test_empty_word(self):
        assert str(w("")) == "1"

    def test_single_char_names_concatenate(self):
        assert str(w("xyx")) == "xyx"

    def test_multichar_names_interpunct(self):
        big = Alphabet(("x1", "x2"))
        assert str(Word(big, (0, 1, 0))) == "x1·x2·x1"
