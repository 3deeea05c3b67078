import random
from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest

from shirshov import (
    Alphabet,
    LieTerm,
    NcPolynomial,
    Word,
    catalog,
    complete_presentation,
    expand_bracket,
    is_alsw,
    lie_gs_check,
    lsw_bracket,
    nlsw_decompose,
    parse_poly,
    parse_presentation,
    pbw_basis,
    prime_field,
    shirshov_complete,
    shirshov_factorize,
    to_algebra_relations,
)
from shirshov.lie import NotAlswError, NotLieElementError, PbwMonomial
from shirshov.complete import CappedCompletionError, CompletionConfig
from shirshov import lie, rewrite
from shirshov.rewrite import RuleSet
from shirshov.words import AlphabetMismatchError

from oracles import (
    all_monotone_alsw_factorizations,
    all_words,
    alsw_census,
    jacobiator_vanishes,
    lie_source,
    necklace_count,
    product_series,
    reference_pbw_basis,
    rotation_maximal,
)

BA = Alphabet(("a", "b"))
ABC = Alphabet(("a", "b", "c"))
FEH = Alphabet(("f", "e", "h"))


class TestIsAlsw:
    def test_single_letters(self):
        assert is_alsw(BA.word("b"))
        assert is_alsw(BA.word("a"))

    def test_two_letters(self):
        assert is_alsw(BA.word("ba"))
        assert not is_alsw(BA.word("ab"))

    def test_periodic_not_alsw(self):
        assert not is_alsw(BA.word("aa"))
        assert not is_alsw(BA.word("baba"))

    def test_matches_rotation_oracle(self):
        for alphabet, nmax in ((BA, 10), (ABC, 7)):
            for n in range(1, nmax + 1):
                for w in all_words(alphabet, n):
                    assert is_alsw(w) == rotation_maximal(w.letters)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            is_alsw(BA.word(""))


class TestShirshovFactorize:
    def test_already_alsw(self):
        assert shirshov_factorize(BA.word("ba")) == [BA.word("ba")]

    def test_abab(self):
        got = shirshov_factorize(BA.word("abab"))
        assert got == [BA.word("a"), BA.word("ba"), BA.word("b")]
        # exhaustive search finds exactly this factorization
        assert all_monotone_alsw_factorizations(BA.word("abab")) == [got]

    def test_repeated_letter(self):
        assert shirshov_factorize(BA.word("aa")) == [BA.word("a"), BA.word("a")]

    def test_concatenation_reproduces(self):
        rng = random.Random(71)
        for _ in range(300):
            n = rng.randrange(1, 10)
            w = Word(ABC, tuple(rng.randrange(3) for _ in range(n)))
            fs = shirshov_factorize(w)
            joined = fs[0]
            for f in fs[1:]:
                joined = joined * f
            assert joined == w
            assert all(is_alsw(f) for f in fs)

    def test_uniqueness_two_letters(self):
        for n in range(1, 11):
            for w in all_words(BA, n):
                found = all_monotone_alsw_factorizations(w)
                assert len(found) == 1
                assert found[0] == shirshov_factorize(w)

    def test_uniqueness_three_letters(self):
        for n in range(1, 8):
            for w in all_words(ABC, n):
                found = all_monotone_alsw_factorizations(w)
                assert len(found) == 1
                assert found[0] == shirshov_factorize(w)


class TestAlswCensus:
    @pytest.mark.parametrize("k", [2, 3])
    def test_necklace_formula_and_brute_force(self, k):
        alphabet = Alphabet(tuple("abc"[:k]))
        for d in range(1, 11):
            count = sum(1 for w in all_words(alphabet, d) if is_alsw(w))
            assert count == necklace_count(k, d)
            assert count == alsw_census(k, d)


class TestLswBracket:
    def test_two_letter(self):
        t = lsw_bracket(BA.word("ba"))
        assert str(t) == "[b,a]"
        assert expand_bracket(t) == parse_poly("b*a - a*b", BA)

    def test_bba(self):
        t = lsw_bracket(BA.word("bba"))
        assert str(t) == "[b,[b,a]]"
        assert expand_bracket(t) == parse_poly("b*b*a - 2*b*a*b + a*b*b", BA)

    def test_baa(self):
        t = lsw_bracket(BA.word("baa"))
        assert str(t) == "[[b,a],a]"
        assert expand_bracket(t) == parse_poly("b*a*a - 2*a*b*a + a*a*b", BA)

    def test_rejects_non_alsw(self):
        with pytest.raises(NotAlswError):
            lsw_bracket(BA.word("ab"))

    def test_triangularity_up_to_8(self):
        for n in range(1, 9):
            for w in all_words(BA, n):
                if not is_alsw(w):
                    continue
                lead, c = expand_bracket(lsw_bracket(w)).leading()
                assert lead == w and c == 1


class TestNlswDecompose:
    def test_negative_bracket(self):
        f = parse_poly("a*b - b*a", BA)
        out = nlsw_decompose(f)
        assert out == {lsw_bracket(BA.word("ba")): Fraction(-1)}

    def test_inverse_of_bracketing(self):
        f = parse_poly("b*b*a - 2*b*a*b + a*b*b", BA)
        out = nlsw_decompose(f)
        assert out == {lsw_bracket(BA.word("bba")): Fraction(1)}

    def test_non_lie_element(self):
        with pytest.raises(NotLieElementError):
            nlsw_decompose(parse_poly("a*b", BA))

    def test_round_trip_random(self):
        rng = random.Random(73)
        alsws = [w for n in range(1, 6) for w in all_words(BA, n) if is_alsw(w)]
        for _ in range(200):
            picks = rng.sample(alsws, rng.randrange(1, 4))
            combo = {lsw_bracket(u): Fraction(rng.choice([-3, -2, -1, 1, 2, 3])) for u in picks}
            assert nlsw_decompose(expand_bracket(combo)) == combo


# generators f(0) e(1) h(2): [e,f] = h, [h,f] = -2f, [h,e] = 2e, as catalog sl2 reads
SL2_TABLE = {(1, 0): {2: 1}, (2, 0): {0: -2}, (2, 1): {1: 2}}
# [x,y] = x, [y,z] = y, [x,z] = 0 with x(0) < y(1) < z(2)
NON_JACOBI_TABLE = {(1, 0): {0: -1}, (2, 1): {1: -1}, (2, 0): {}}


def lie_relations(names, table):
    return to_algebra_relations(parse_presentation(lie_source(names, table)))


def sl2_relations():
    return to_algebra_relations(catalog("sl2"))


class TestStructureConstants:
    def test_sl2_transcription(self):
        assert lie_relations(("f", "e", "h"), SL2_TABLE) == sl2_relations()
        assert [str(f) for f in sl2_relations()] == [
            "e*f - f*e - h",
            "h*f - f*h + 2*f",
            "h*e - e*h - 2*e",
        ]

    def test_sl2_over_a_prime_field(self):
        # a table over GF(7) has no file syntax: expand_bracket builds its
        # relations, the Q expansion mod 7 in GF(7) alone, and the Lie GS
        # check runs on them
        GF7 = prime_field(7)
        x = [LieTerm.leaf(FEH, t) for t in range(3)]
        over_gf = [
            expand_bracket({LieTerm.bracket(x[i], x[j]): GF7(1), **{x[t]: GF7(-c) for t, c in combo.items()}})
            for (i, j), combo in SL2_TABLE.items()
        ]
        assert [f.terms for f in over_gf] == [
            {w: GF7(c.numerator) for w, c in f.terms.items()} for f in sl2_relations()
        ]
        assert {type(c) for f in over_gf for c in f.terms.values()} == {GF7}
        assert lie_gs_check(over_gf) == (True, [])

    def test_dimension_one(self):
        assert to_algebra_relations(parse_presentation("kind: lie\ngenerators: x\nrelations:\n")) == []

    def test_abelian_two(self):
        rels = to_algebra_relations(parse_presentation("kind: lie\ngenerators: x y\nrelations:\n"))
        assert [str(f) for f in rels] == ["y*x - x*y"]


class TestLieGsCheck:
    def test_sl2_is_gs(self):
        ok, certs = lie_gs_check(sl2_relations())
        assert ok and certs == []

    def test_non_jacobi_fails_with_residue(self):
        ok, certs = lie_gs_check(lie_relations(("x", "y", "z"), NON_JACOBI_TABLE))
        assert not ok
        residues = {str(rec.residue) for rec in certs}
        assert residues & {"x", "-x"}

    def test_empty(self):
        ok, certs = lie_gs_check([])
        assert ok and certs == []

    def test_rejects_non_lie(self):
        with pytest.raises(NotLieElementError):
            lie_gs_check([parse_poly("a*b", BA)])


class TestJacobiEquivalence:
    def test_sl2_and_non_jacobi(self):
        assert jacobiator_vanishes(SL2_TABLE)
        assert not jacobiator_vanishes(NON_JACOBI_TABLE)

    def test_random_tables(self):
        rng = random.Random(79)
        names = ("w", "x", "y", "z")
        for _ in range(50):
            n = rng.randrange(2, 5)
            table = {}
            for i in range(n):
                for j in range(i):
                    combo = {}
                    for t in range(n):
                        c = rng.randint(-2, 2)
                        if c:
                            combo[t] = Fraction(c)
                    table[(i, j)] = combo
            ok, _ = lie_gs_check(lie_relations(names[:n], table))
            assert ok == jacobiator_vanishes(table)


class TestPbwBasis:
    def test_free_two_letters_degree_two(self):
        out = pbw_basis(None, 2, BA)
        deg2 = [str(m) for m in out if m.degree == 2]
        assert sorted(deg2) == sorted(["a·a", "a·b", "b·b", "ba"])
        assert len(deg2) == 4

    def test_free_counts_are_powers(self):
        for k, alphabet, dmax in ((2, BA, 8), (3, ABC, 6)):
            out = pbw_basis(None, dmax, alphabet)
            by_deg = {}
            for m in out:
                by_deg[m.degree] = by_deg.get(m.degree, 0) + 1
            for d in range(dmax + 1):
                assert by_deg.get(d, 0) == k**d

    def test_sl2_degree_two(self):
        res = shirshov_complete(sl2_relations())
        out = pbw_basis(res, 2, FEH)
        deg2 = [str(m) for m in out if m.degree == 2]
        assert sorted(deg2) == sorted(
            ["f·f", "f·e", "f·h", "e·e", "e·h", "h·h"]
        )

    def test_foreign_alphabet_rejected(self):
        res = shirshov_complete(sl2_relations())
        with pytest.raises(AlphabetMismatchError):
            pbw_basis(res, 2, ABC)
        assert pbw_basis(res, 2, Alphabet(("f", "e", "h"))) == pbw_basis(res, 2)

    def test_rule_set_certified_elsewhere(self):
        res = shirshov_complete(sl2_relations())
        assert len(pbw_basis(res.basis, 3)) == 1 + 3 + 6 + 10
        assert pbw_basis(res.basis, 3) == pbw_basis(res, 3)

    def test_degree_zero(self):
        out = pbw_basis(None, 0, BA)
        assert len(out) == 1 and out[0].factors == ()

    def test_capped_rejected(self):
        f = parse_poly("x*x - x*y", Alphabet(("y", "x")))
        res = shirshov_complete([f], CompletionConfig(max_degree=4))
        with pytest.raises(CappedCompletionError):
            pbw_basis(res, 3)

    def test_factor_sequences_monotone(self):
        from oracles import cmp_lex_prefix_greater

        out = pbw_basis(None, 6, BA)
        for m in out:
            for u, v in zip(m.factors, m.factors[1:]):
                assert cmp_lex_prefix_greater(u, v) != 1
            assert all(is_alsw(u) for u in m.factors)

    def test_free_case_counts_match_factorization(self):
        # PBW monomials of degree d in the free case biject with words of
        # length d through Shirshov factorization
        out = pbw_basis(None, 5, BA)
        concats = sorted(m.concatenation().letters for m in out if m.factors)
        words = sorted(w.letters for n in range(1, 6) for w in all_words(BA, n))
        assert concats == words

    @pytest.mark.parametrize("name, d", [("free-2", 7), ("sl2", 5), ("heisenberg-3", 5)])
    def test_order_matches_factorization_oracle(self, name, d):
        # every word of degree <= d with all its monotone ALSW factors in
        # Irr(S), in deg-lex order of the word: the PBW list, in order
        if name == "free-2":
            S, alphabet, leads = None, BA, []
        else:
            p = catalog(name)
            S = complete_presentation(p)
            alphabet, leads = p.alphabet, S.basis.leads

        def irreducible(u):
            s = u.letters
            return not any(
                s[i : i + len(lead)] == lead
                for lead in leads
                for i in range(len(s) - len(lead) + 1)
            )

        expected = [
            tuple(factors)
            for n in range(d + 1)
            for w in all_words(alphabet, n)
            for factors in all_monotone_alsw_factorizations(w)
            if all(irreducible(u) for u in factors)
        ]
        assert [m.factors for m in pbw_basis(S, d, alphabet)] == expected


class TestPbwMonomial:
    def test_frozen_hashable_value(self):
        a, b = pbw_basis(None, 3, BA)[5], pbw_basis(None, 3, BA)[5]
        assert a is not b and a.factors == b.factors
        with pytest.raises(FrozenInstanceError):
            a.factors = ()
        assert a == b and hash(a) == hash(b)
        assert PbwMonomial(b.factors) == a and hash(PbwMonomial(b.factors)) == hash(a)
        assert len({a, b, PbwMonomial(a.factors)}) == 1
        assert str(PbwMonomial(())) == "1"


class TestPbwDifferential:
    @pytest.mark.parametrize(
        "name, d",
        [
            ("free-2", 9), ("free-3", 7), ("sl2", 12), ("heisenberg-3", 12),
            # the sort keys: base 2 for one letter, base 6 for five, and past
            # 2**60 for sl2 at degree 30 (4**30)
            ("free-1", 20), ("free-5", 5), ("sl2", 30),
        ],
    )
    def test_matches_reference_in_order(self, name, d):
        if name.startswith("free"):
            S, alphabet = None, Alphabet(tuple("abcde"[: int(name[5:])]))
        else:
            S, alphabet = complete_presentation(catalog(name)), None
        assert pbw_basis(S, d, alphabet) == reference_pbw_basis(S, d, alphabet)

    def test_foreign_alphabet(self):
        res = complete_presentation(catalog("sl2"))
        for f in (pbw_basis, reference_pbw_basis):
            with pytest.raises(AlphabetMismatchError):
                f(res, 3, ABC)
        # the free case answers over any alphabet
        UV = Alphabet(("u", "v"))
        assert pbw_basis(None, 6, UV) == reference_pbw_basis(None, 6, UV)

    def test_unit_ideal(self):
        A = Alphabet(("x", "y"))
        res = shirshov_complete([parse_poly("x - 1", A), parse_poly("x", A)])
        assert pbw_basis(res, 4) == reference_pbw_basis(res, 4) == []

    @pytest.mark.parametrize("name", ["sl2", "heisenberg-3"])
    def test_counts_follow_the_atoms(self, name):
        # PBW theorem: degree counts are the coefficients of the product of
        # 1/(1 - t^|u|) over the ALSWs u of Irr(S)
        d = 8
        res = complete_presentation(catalog(name))
        leads = res.basis.leads
        atoms = [
            w for n in range(1, d + 1) for w in all_words(res.basis.alphabet, n)
            if rotation_maximal(w.letters)
            and not any(w.letters[i : i + len(lead)] == lead for lead in leads for i in range(n))
        ]
        by_deg = [0] * (d + 1)
        for m in pbw_basis(res, d):
            by_deg[m.degree] += 1
        assert by_deg == product_series([len(u) for u in atoms], d)

    @pytest.mark.parametrize("k, d", [(2, 9), (3, 7)])
    def test_free_counts_follow_witt(self, k, d):
        # Witt's formula counts the ALSWs of each length: necklace_count
        alphabet = ABC if k == 3 else BA
        lengths = [n for n in range(1, d + 1) for _ in range(necklace_count(k, n))]
        by_deg = [0] * (d + 1)
        out = pbw_basis(None, d, alphabet)
        for m in out:
            by_deg[m.degree] += 1
        assert by_deg == product_series(lengths, d) == [k**n for n in range(d + 1)]
        # the single-factor monomials are the rotation-maximal words, listed
        # by degree, then lex
        atoms = [w.letters for n in range(1, d + 1) for w in all_words(alphabet, n)
                 if rotation_maximal(w.letters)]
        assert [m.factors[0].letters for m in out if len(m.factors) == 1] == atoms

    def test_walks_only_alsw_prefixes(self, monkeypatch):
        # the atoms come from the Duval-pruned walk, not from listing Irr(S):
        # 90 words of sl2's Irr(S) up to degree 30 can start an ALSW, of 5,455
        def listing(*args):
            raise AssertionError("pbw_basis listed Irr(S)")

        monkeypatch.setattr(rewrite, "_irr_levels", listing)
        monkeypatch.setattr(lie, "_irr_levels", listing, raising=False)
        res = complete_presentation(catalog("sl2"))
        assert len(pbw_basis(res, 30)) == 5456  # C(33, 3)

        periods = []
        step = lie._duval_step

        def counted(w, p, x):
            periods.append(step(w, p, x))
            return periods[-1]

        monkeypatch.setattr(lie, "_duval_step", counted)
        pbw_basis(res, 30)
        assert sum(1 for p in periods if p) == 90

    def test_monomial_rule_sets(self):
        # seeded monomial sets, whose leads block ALSW prefixes: the walk
        # prunes Irr(S) there, where the reference lists every word
        fixed = [
            (BA, ["a"]),  # a one-letter lead
            (BA, ["ba"]),  # a lead that is itself an ALSW
            (BA, ["aa"]),  # a periodic lead
            (BA, ["bba", "aa"]),
            (BA, ["a", "b"]),  # Irr(S) = {1}
            (BA, ["aa", "bb", "ba"]),  # Irr(S) = {1, a, b, ab}
            (ABC, ["b", "cc", "ca", "aa", "ac"]),  # Irr(S) is finite
            (ABC, ["cb", "ca"]),
            (BA, [""]),  # the unit ideal
            (ABC, [""]),
        ]
        rng = random.Random(20)
        cases = [(alphabet, [alphabet.word(t) for t in leads]) for alphabet, leads in fixed]
        while len(cases) < 200:
            alphabet = rng.choice((BA, ABC))
            leads = [Word(alphabet, [rng.randrange(len(alphabet)) for _ in range(rng.randint(1, 4))])
                     for _ in range(rng.randint(1, 4))]
            cases.append((alphabet, leads))
        for i, (alphabet, leads) in enumerate(cases):
            S = RuleSet([NcPolynomial.monomial(u) for u in leads])
            for d in range(9) if i < len(fixed) else [i % 9]:
                assert pbw_basis(S, d, alphabet) == reference_pbw_basis(S, d, alphabet), (leads, d)
