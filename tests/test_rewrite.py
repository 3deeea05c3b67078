import random
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from shirshov import (
    ZERO,
    Alphabet,
    NcPolynomial,
    RuleSet,
    Word,
    catalog,
    complete_presentation,
    compositions,
    expand_bracket,
    irr_words,
    lsw_bracket,
    normal_form_word,
    parse_poly,
    parse_presentation,
    pbw_basis,
    prime_field,
    reduce,
    shirshov_complete,
)
from shirshov.complete import STATUS_COMPLETE, CompletionConfig
from shirshov.rewrite import (
    StepLimitExceeded,
    reduce_with_steps,
    rewrite_word,
)
from shirshov.words import AlphabetMismatchError, deglex_key

from oracles import (
    all_words,
    brute_leftmost_match,
    brute_match,
    nested_lead,
    random_ideal_element,
    reference_reduce_with_steps,
    reference_rewrite_word,
)

FEH = Alphabet(("f", "e", "h"))
AB = Alphabet(("x", "y"))
ABC = Alphabet(("a", "b", "c"))
XYZ = Alphabet(("x", "y", "z"))
BA = Alphabet(("a", "b"))


def sl2_rules():
    return RuleSet(
        [
            parse_poly("h*e - e*h - 2*e", FEH),
            parse_poly("h*f - f*h + 2*f", FEH),
            parse_poly("e*f - f*e - h", FEH),
        ]
    )


def plactic2_rules():
    return RuleSet(
        [
            parse_poly("b*a*a - a*b*a", BA),
            parse_poly("b*b*a - b*a*b", BA),
        ]
    )


class TestReduce:
    def test_single_application(self):
        S = sl2_rules()
        out = reduce(parse_poly("h*e", FEH), S)
        assert out == parse_poly("e*h + 2*e", FEH)

    def test_plactic_confluent_paths(self):
        S = plactic2_rules()
        out = reduce(parse_poly("b*b*a*a", BA), S)
        assert out == parse_poly("b*a*b*a", BA)

    def test_empty_rule_set(self):
        f = parse_poly("y*x", AB)
        assert reduce(f, RuleSet()) == f

    @pytest.mark.parametrize("text,symbols", [("z*x", "xyz"), ("y*x", "yx")], ids=["larger", "same_size"])
    def test_foreign_alphabet(self, text, symbols):
        # the lead automaton reads letters as indices into the basis's alphabet
        f = parse_poly(text, Alphabet(tuple(symbols)))
        with pytest.raises(AlphabetMismatchError):
            reduce(f, RuleSet([parse_poly("x - 1", AB)]))

    def test_rule_over_another_alphabet(self):
        # as completion and reduce do; AlphabetMismatchError is a ValueError
        S = RuleSet([parse_poly("x - 1", AB)])
        for symbols in ("xyz", "yx"):
            with pytest.raises(AlphabetMismatchError, match="different alphabets"):
                S.add(parse_poly("y*x - x", Alphabet(tuple(symbols))))
        assert issubclass(AlphabetMismatchError, ValueError)
        assert len(S) == 1

    def test_idempotence_random(self):
        rng = random.Random(41)
        S = sl2_rules()
        for _ in range(200)        :
            f = _random_poly(rng, FEH)
            r = reduce(f, S)
            assert reduce(r, S) == r

    def test_multiset_termination_certificate(self, monkeypatch):
        # every step strictly decreases the support multiset under deg-lex;
        # witnessed by a step bound that the reduction never exceeds
        rng = random.Random(43)
        S = sl2_rules()
        monkeypatch.setenv("GS_MAX_STEPS", "100000")
        for _ in range(50):
            f = _random_poly(rng, FEH, max_deg=5)
            _, steps = reduce_with_steps(f, S)
            assert steps <= 100_000

    def test_ideal_membership_soundness(self):
        # random combinations of normal S-words reduce to zero
        rng = random.Random(47)
        S = sl2_rules()
        for _ in range(200):
            f = random_ideal_element(rng, S, FEH, max_degree=5, n_terms=3)
            assert reduce(f, S).is_zero()

    def test_leading_word_containment(self):
        rng = random.Random(53)
        S = sl2_rules()
        for _ in range(200):
            f = random_ideal_element(rng, S, FEH, max_degree=5, n_terms=3)
            if f.is_zero():
                continue
            lead, _ = f.leading()
            assert S.leftmost_match(lead.letters) is not None


def seeded_lead_sets(rng):
    """300 random monomial rule sets over 2 or 3 letters, with equal, empty
    and retired leads; (k, S) is yielded after each add and its retire, if
    any, so the caller's draws from rng interleave with the set's."""
    for _ in range(300):
        alphabet = rng.choice((AB, XYZ))
        k = len(alphabet)
        S = RuleSet()
        for _ in range(rng.randint(1, 6)):
            if S.leads and rng.random() < 0.2:
                lead = rng.choice(S.leads)  # an equal lead
            elif rng.random() < 0.05:
                lead = ()
            else:
                lead = tuple(rng.randrange(k) for _ in range(rng.randint(1, 4)))
            S.add(NcPolynomial.monomial(Word(alphabet, lead)))
            if len(S.active) > 1 and rng.random() < 0.3:
                S.retire(rng.choice(list(S.active)))
            yield k, S


class TestLeftmostMatch:
    """The automaton's first-to-end match against brute-force scans, on
    random sets with retired rules, equal leads and empty leads."""

    def test_against_brute_force(self):
        rng = random.Random(7211)
        nested = flat = 0
        for k, S in seeded_lead_sets(rng):
            leads = [S.leads[i] for i in S.active]
            flat_set = nested_lead(S) is None
            for _ in range(10):
                letters = tuple(rng.randrange(k) for _ in range(rng.randint(0, 10)))
                got = S.leftmost_match(letters)
                assert got == brute_match(letters, S), (leads, letters)
                if flat_set:
                    assert got == brute_leftmost_match(letters, S), (leads, letters)
            flat += flat_set
            nested += not flat_set
        assert nested > 100 and flat > 100

    def test_one_state_per_live_lead_prefix(self):
        # the table's states are the distinct prefixes of active leads that
        # contain no active lead, reached by walking each such prefix; every
        # other transition names the rule brute_match finds at the word's end
        sets = empty = nested = 0
        for k, S in seeded_lead_sets(random.Random(7211)):
            leads = [S.leads[i] for i in S.active]
            live = {
                u[:n] for u in leads for n in range(len(u) + 1)
                if not any(u[s : s + len(v)] == v for v in leads for s in range(n - len(v) + 1))
            }
            delta, r0 = S._automaton(k)
            assert r0 == min((i for i in S.active if not S.leads[i]), default=-1)
            assert len(delta) == len(live), leads
            assert all(len(row) == k for row in delta)
            reached = {}
            for u in live:
                s = 0
                for x in u:
                    s = delta[s][x]
                reached[s] = u
            assert sorted(reached) == list(range(len(delta))), leads
            for s, u in reached.items():
                for x in range(k):
                    t = delta[s][x]
                    if t < 0:
                        assert brute_match(u + (x,), S) == (len(u) + 1 - len(S.leads[~t]), ~t), (leads, u, x)
                    else:
                        assert brute_match(u + (x,), S) is None, (leads, u, x)
            sets += 1
            empty += r0 >= 0
            nested += nested_lead(S) is not None
        assert sets > 1000 and empty > 20 and nested > 100

    def test_table_built_once_per_basis(self, monkeypatch):
        builds = []
        build = RuleSet._automaton

        def counted(self, k):
            if self._automaton_cache is None:
                builds.append(self)
            return build(self, k)

        monkeypatch.setattr(RuleSet, "_automaton", counted)
        p = catalog("chinese-3")
        res = complete_presentation(p)
        S = res.basis
        builds.clear()
        rng = random.Random(7213)
        for _ in range(200):
            normal_form_word(Word(p.alphabet, [rng.randrange(3) for _ in range(rng.randint(0, 40))]), res)
        assert builds == [S]
        table = S._automaton_cache
        assert table is not None
        S.retire(0)
        assert S._automaton_cache is None
        S.add(S[0])
        assert S._automaton_cache is None
        normal_form_word(p.alphabet.word("c b a"), res)
        assert builds == [S, S] and S._automaton_cache is not table

    def test_nested_lead_remainder(self):
        # c*a*b contains the lead a: the first match to end rewrites the a
        # inside c*b*a*c*a*b, the leftmost scan rewrites that word at c*a*b
        S = RuleSet([parse_poly("c*a*b + 1/2*a*a - 1", ABC), parse_poly("a - 1", ABC)])
        f = parse_poly("c*b*a*c*a*b + b*c*a + c", ABC)
        assert reduce(f, S) == parse_poly("c*b*c*b + b*c + c", ABC)
        assert reference_reduce_with_steps(f, S)[0] == reduce(f, S)
        leftmost, _ = reference_reduce_with_steps(f, S, brute_leftmost_match)
        assert leftmost == parse_poly("1/2*c*b + b*c + c", ABC)


class TestIrrWords:
    def test_square_free(self):
        S = RuleSet([parse_poly("x*x - x", AB)])
        got = [str(w) for w in irr_words(S, 2)]
        assert got == ["1", "x", "y", "xy", "yx", "yy"]

    def test_sl2_degree_two(self):
        S = sl2_rules()
        deg2 = [str(w) for w in irr_words(S, 2) if len(w) == 2]
        assert deg2 == ["ff", "fe", "fh", "ee", "eh", "hh"]
        assert len(deg2) == 6

    def test_empty_rules_single_letter(self):
        X = Alphabet(("x",))
        got = [str(w) for w in irr_words(RuleSet(), 1, X)]
        assert got == ["1", "x"]

    def test_empty_rule_set_needs_an_alphabet(self):
        # with no rule there is no alphabet to answer in
        with pytest.raises(ValueError, match="^empty rule set needs an explicit alphabet$"):
            RuleSet().query_alphabet()
        with pytest.raises(ValueError, match="^empty rule set needs an explicit alphabet$"):
            irr_words(RuleSet(), 1)
        assert RuleSet().query_alphabet(AB) is AB

    def test_foreign_alphabet_rejected(self):
        # letters are indices: over a < b the lead yx would silently drop ba
        S = RuleSet([parse_poly("y*x - 1", AB)])
        with pytest.raises(AlphabetMismatchError):
            irr_words(S, 2, BA)
        with pytest.raises(AlphabetMismatchError):
            irr_words(RuleSet([NcPolynomial.one(AB)]), 2, BA)
        assert irr_words(S, 2, Alphabet(("x", "y"))) == irr_words(S, 2)

    def test_count_complement(self):
        S = plactic2_rules()
        d = 6
        total = sum(2**i for i in range(d + 1))
        irr = irr_words(S, d)
        reducible = 0
        for n in range(d + 1):
            for w in all_words(BA, n):
                if S.leftmost_match(w.letters) is not None:
                    reducible += 1
        assert len(irr) + reducible == total

    def test_deglex_ascending(self):
        S = sl2_rules()
        ws = irr_words(S, 4)
        keys = [deglex_key(w) for w in ws]
        assert keys == sorted(keys)

    def test_matches_brute_force_filter(self):
        S = plactic2_rules()
        expected = []
        for n in range(7):
            for w in all_words(BA, n):
                if S.leftmost_match(w.letters) is None:
                    expected.append(w.letters)
        assert [w.letters for w in irr_words(S, 6)] == expected

    def test_retired_lead_no_longer_excludes(self):
        S = RuleSet([parse_poly("y*x - x*y", AB), parse_poly("y*y - x", AB)])
        S.retire(1)
        assert S.leftmost_match((1, 1)) is None
        assert [str(w) for w in irr_words(S, 2)] == ["1", "x", "y", "xx", "xy", "yy"]

    def test_retired_rules_against_brute_force(self):
        # random leads over two letters, equal leads included, some retired;
        # Irr(S) is every word with no active lead as a subword
        rng = random.Random(4111)
        for _ in range(60):
            leads = [
                tuple(rng.randrange(2) for _ in range(rng.randint(1, 3)))
                for _ in range(rng.randint(1, 5))
            ]
            S = RuleSet(NcPolynomial.monomial(Word(AB, lead)) for lead in leads)
            retired = rng.sample(range(len(leads)), rng.randint(0, len(leads)))
            for idx in retired:
                S.retire(idx)
            active = [lead for i, lead in enumerate(leads) if i not in retired]
            expected = [
                w.letters
                for n in range(6)
                for w in all_words(AB, n)
                if not any(
                    w.letters[s : s + len(lead)] == lead
                    for lead in active
                    for s in range(len(w) - len(lead) + 1)
                )
            ]
            assert [w.letters for w in irr_words(S, 5)] == expected
            for n in range(6):
                for w in all_words(AB, n):
                    ends = any(w.letters[n - len(lead):] == lead for lead in active if len(lead) <= n)
                    assert S.has_lead_suffix(w.letters) == ends, (leads, retired, w)
        # an empty lead is a suffix of every word while it is active
        S = RuleSet([NcPolynomial.monomial(Word(AB, (0, 1))), NcPolynomial.one(AB)])
        assert S.has_lead_suffix(()) and S.has_lead_suffix((1, 0))
        S.retire(1)
        assert not S.has_lead_suffix(()) and not S.has_lead_suffix((1, 0))
        assert S.has_lead_suffix((1, 0, 1))
        assert not RuleSet().has_lead_suffix((0, 1))

    def test_queries_follow_add_and_retire(self):
        # with monomial rules a word's normal form is zero exactly when an
        # active lead is a subword, so every query has a brute-force answer
        def agrees(S, active):
            irr = []
            for w in (w for n in range(6) for w in all_words(AB, n)):
                t = w.letters
                inside = any(t[s : s + len(lead)] == lead for lead in active for s in range(len(t) - len(lead) + 1))
                suffix = any(t[len(t) - len(lead):] == lead for lead in active if len(lead) <= len(t))
                assert rewrite_word(t, S) == (None if inside else t), (active, t)
                assert S.has_lead_suffix(t) == suffix, (active, t)
                if not inside:
                    irr.append(w)
            assert irr_words(S, 5) == irr

        leads = [(0, 1), (1, 1, 1)]
        S = RuleSet(NcPolynomial.monomial(Word(AB, lead)) for lead in leads)
        agrees(S, leads)
        S.add(NcPolynomial.monomial(Word(AB, (1, 0))))
        agrees(S, leads + [(1, 0)])
        S.retire(0)
        agrees(S, [(1, 1, 1), (1, 0)])


def _assert_field_elements(f: NcPolynomial, field):
    for c in f.terms.values():
        assert type(c) is field, (c, field)


class TestReduceAgainstReference:
    """The top-down walk must take the same steps as the reference loop,
    which sorts and matches the whole support again after every rewrite."""

    @pytest.mark.parametrize(
        "field",
        [Fraction, prime_field(32003), prime_field(2), prime_field(7)],
        ids=["Q", "GF32003", "GF2", "GF7"],
    )
    @pytest.mark.parametrize("retire", [False, True], ids=["raw", "one_retired"])
    def test_same_normal_form_and_steps(self, field, retire):
        rng = random.Random(4099)
        total_steps = 0
        for _ in range(150):
            # raw monic inputs: overlapping leads, not a GS basis
            n_rules = rng.randint(2, 4)
            rules = []
            while len(rules) < n_rules:
                g = _random_poly(rng, XYZ, 3, field)
                if not g.is_zero() and len(g.leading()[0]) > 0:
                    rules.append(g.monic())
            S = RuleSet(rules)
            if retire:
                S.retire(rng.randrange(len(S)))
            f = _random_poly(rng, XYZ, 6, field)
            got, steps = reduce_with_steps(f, S)
            want, want_steps = reference_reduce_with_steps(f, S)
            assert steps == want_steps
            assert list(got.terms.items()) == list(want.terms.items())
            _assert_field_elements(got, field)
            if not steps:
                assert got is f
            total_steps += steps
        assert total_steps > 0

    def test_same_normal_form_and_steps_with_huge_fractions(self):
        # rule coefficients with numerators and denominators above 2**64, so
        # the running denominator outgrows every machine word
        rng = random.Random(8191)

        def big():
            return Fraction(rng.choice((-1, 1)) * rng.randrange(2**64, 2**70), rng.randrange(2**64, 2**70))

        total_steps = 0
        huge = False
        for _ in range(60):
            n_rules = rng.randint(2, 3)
            rules = []
            while len(rules) < n_rules:
                g = _random_poly(rng, XYZ, 3)
                if not g.is_zero() and len(g.leading()[0]) > 0:
                    rules.append(NcPolynomial(XYZ, {w: big() for w in g.terms}).monic())
            S = RuleSet(rules)
            f = NcPolynomial(XYZ, {w: big() for w in _random_poly(rng, XYZ, 6).terms})
            got, steps = reduce_with_steps(f, S)
            want, want_steps = reference_reduce_with_steps(f, S)
            assert steps == want_steps
            assert list(got.terms.items()) == list(want.terms.items())
            _assert_field_elements(got, Fraction)
            total_steps += steps
            huge = huge or any(c.denominator > 2**64 for c in got.terms.values())
        assert total_steps > 0 and huge

    def test_unit_rule(self):
        S = RuleSet([parse_poly("x*y - y", AB), NcPolynomial.one(AB)])
        assert S.leftmost_match((1, 1)) == (0, 1)
        assert S.leftmost_match(()) == (0, 1)
        assert irr_words(S, 3) == []
        assert reduce(parse_poly("y*y + 3", AB), S).is_zero()


GF5, GF7 = prime_field(5), prime_field(7)


class TestFieldGuard:
    """A rule set and everything reduced against it share one field."""

    @pytest.mark.parametrize(
        "first, second", [(Fraction, GF7), (GF7, Fraction), (GF5, GF7), (GF7, GF5)],
        ids=["Q-GF7", "GF7-Q", "GF5-GF7", "GF7-GF5"],
    )
    def test_rule_set_rejects_another_field(self, first, second):
        with pytest.raises(TypeError, match="cannot mix"):
            RuleSet([parse_poly("x*y - 3*y", AB, field=first), parse_poly("y*y - x", AB, field=second)])

    @pytest.mark.parametrize(
        "rules, poly", [(GF7, Fraction), (Fraction, GF7), (GF7, GF5), (GF5, GF7)],
        ids=["Q-on-GF7", "GF7-on-Q", "GF5-on-GF7", "GF7-on-GF5"],
    )
    def test_reduce_rejects_another_field(self, rules, poly):
        S = RuleSet([parse_poly("x*y - 3*y", AB, field=rules)])
        # reducible and irreducible polynomials alike
        for text in ("x*y*x + 1/2*y", "y*x + 1/2*y"):
            with pytest.raises(TypeError, match="cannot mix"):
                reduce(parse_poly(text, AB, field=poly), S)

    def test_reduce_checks_the_words_above_the_first_reducible_one(self):
        # x*x*x and x*x are irreducible; only y reduces, and the GF(7)
        # coefficient above it must not pass through into a Q result: the
        # polynomial that mixes them is refused when it is built
        with pytest.raises(TypeError, match="cannot mix"):
            f = NcPolynomial(AB, {AB.word("x x x"): 1, AB.word("x x"): GF7(3), AB.word("y"): 1})
            reduce(f, RuleSet([parse_poly("y - x", AB)]))

    @pytest.mark.parametrize("lead", ["x y", "y y x"], ids=["irreducible", "reducible"])
    def test_reduce_checks_every_coefficient(self, lead):
        # the GF(7) coefficient below a Q lead is caught before the
        # irreducible fast path, not only on the way into a reduction: the
        # polynomial that mixes them is refused when it is built
        with pytest.raises(TypeError, match="cannot mix"):
            f = NcPolynomial(AB, {AB.word(lead): Fraction(1), AB.word("x"): GF7(2)})
            reduce(f, RuleSet([parse_poly("y*y - x", AB)]))

    def test_rejects_a_coefficient_of_no_field(self):
        y = AB.word("y")
        with pytest.raises(TypeError, match="neither a Fraction nor a prime_field"):
            RuleSet([NcPolynomial(AB, {AB.word("x y"): complex(1), y: 2})])
        S = RuleSet([parse_poly("x*y - 3*y", AB)])
        with pytest.raises(TypeError, match="neither a Fraction nor a prime_field"):
            reduce(NcPolynomial(AB, {AB.word("x y x"): Decimal(2)}), S)
        with pytest.raises(TypeError, match="neither a Fraction nor a prime_field"):
            reduce(NcPolynomial(AB, {AB.word("x y x"): Fraction(1), y: Decimal(2)}), S)

    def test_a_rejected_rule_leaves_the_set_as_it_was(self):
        S = RuleSet()
        with pytest.raises(TypeError):
            S.add(NcPolynomial(AB, {AB.word("x y"): Fraction(1), AB.word("y"): GF7(2)}))
        assert (len(S), S.alphabet, S.field) == (0, None, None)
        S.add(parse_poly("y - 2*x", AB, field=GF7))
        assert S.field is GF7


WORD_BASES = (
    "bicyclic", "plactic-2", "plactic-3", "chinese-2", "chinese-3", "chinese-4",
    "free-comm-2", "free-comm-3", "free-comm-4", "s3",
)
S3 = "kind: group\ngenerators: a b\nrelations:\n  a a = 1\n  b b = 1\n  a b a = b a b\n"


@lru_cache(maxsize=None)
def word_basis(name):
    p = parse_presentation(S3) if name == "s3" else catalog(name)
    cap = 7 if name == "plactic-3" else None
    res = complete_presentation(p, CompletionConfig(max_degree=cap))
    assert res.status == STATUS_COMPLETE, name
    return p.alphabet, res.basis


def reduced_letters(letters, S, alphabet):
    """The classical path: the normal form's letters, or None for zero."""
    nf = reduce(NcPolynomial.monomial(Word(alphabet, letters)), S)
    if nf.is_zero():
        return None
    (w, c), = nf.terms.items()
    assert c == 1
    return w.letters


def assert_agrees_up_to(S, alphabet, max_len):
    for n in range(max_len + 1):
        for w in all_words(alphabet, n):
            assert rewrite_word(w.letters, S) == reduced_letters(w.letters, S, alphabet), w


def _retired(rules, *idxs):
    S = RuleSet(rules)
    for i in idxs:
        S.retire(i)
    return S


EQUAL_LEADS = [parse_poly("y*x - x*y", AB), parse_poly("y*x - x*x", AB), parse_poly("y*y - x", AB)]
EMPTY_LEAD = [parse_poly("x*y - y", AB), NcPolynomial.one(AB)]
# the sets of TestRewriteWordAgainstReduce that are not catalog bases
SPECIAL_WORD_SETS = {
    "equal-leads": lambda: RuleSet(EQUAL_LEADS),
    "equal-leads-retired": lambda: _retired(EQUAL_LEADS, 2),
    "equal-lead-retired": lambda: _retired(EQUAL_LEADS[:2], 0),
    "monomial": lambda: shirshov_complete([parse_poly("x*y", AB)]).basis,
    "empty-lead": lambda: RuleSet(EMPTY_LEAD),
    "empty-lead-retired": lambda: _retired(EMPTY_LEAD, 1),
}


class TestRewriteWordAgainstReduce:
    """The stack rewriter must reach the classical reduction's normal form."""

    @pytest.mark.parametrize("name", WORD_BASES)
    def test_all_short_words(self, name):
        alphabet, S = word_basis(name)
        assert_agrees_up_to(S, alphabet, 5 if len(alphabet) > 3 else 6)

    @pytest.mark.parametrize("name", WORD_BASES)
    def test_long_seeded_words(self, name):
        alphabet, S = word_basis(name)
        rng = random.Random(5003)
        for _ in range(200):
            letters = tuple(rng.randrange(len(alphabet)) for _ in range(rng.randint(0, 64)))
            assert rewrite_word(letters, S) == reduced_letters(letters, S, alphabet), letters

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(WORD_BASES), st.lists(st.integers(0, 3), max_size=40))
    def test_property(self, name, raw):
        alphabet, S = word_basis(name)
        letters = tuple(x % len(alphabet) for x in raw)
        assert rewrite_word(letters, S) == reduced_letters(letters, S, alphabet)

    def test_equal_leads_and_retired_rules(self):
        # a lead rewrites by its lowest active rule index, as in leftmost_match
        rules = EQUAL_LEADS
        S = RuleSet(rules)
        assert rewrite_word((1, 0), S) == (0, 1)
        S.retire(2)
        assert rewrite_word((1, 1, 0), S) == (0, 1, 1)
        assert_agrees_up_to(S, AB, 6)
        S = RuleSet(rules[:2])
        S.retire(0)
        assert rewrite_word((1, 0), S) == (0, 0)
        assert_agrees_up_to(S, AB, 6)

    def test_monomial_rule_absorbs(self):
        S = shirshov_complete([parse_poly("x*y", AB)]).basis
        assert rewrite_word((0, 0, 1, 1), S) is None
        assert rewrite_word((1, 1, 0, 0), S) == (1, 1, 0, 0)
        assert_agrees_up_to(S, AB, 6)

    def test_empty_lead_absorbs_every_word(self):
        S = RuleSet(EMPTY_LEAD)
        assert rewrite_word((), S) is None
        assert_agrees_up_to(S, AB, 4)
        S.retire(1)
        assert rewrite_word((0, 1), S) == (1,)
        assert_agrees_up_to(S, AB, 4)


class TestRewriteWordStepCap:
    def test_cap_counts_rewrites(self, monkeypatch):
        _, S = word_basis("bicyclic")  # q p; the one rule is p q -> 1
        monkeypatch.setenv("GS_MAX_STEPS", "1")
        with pytest.raises(StepLimitExceeded):
            rewrite_word((1, 1, 0, 0), S)
        monkeypatch.setenv("GS_MAX_STEPS", "2")
        assert rewrite_word((1, 1, 0, 0), S) == ()


class TestRewriteWordAgainstReference:
    """rewrite_word against the stack rewriter with brute-force suffix scans:
    the same letters, and exactly the reference's rewrites under GS_MAX_STEPS."""

    @pytest.mark.parametrize("name", WORD_BASES + tuple(SPECIAL_WORD_SETS))
    def test_seeded_words(self, name, monkeypatch):
        if name in SPECIAL_WORD_SETS:
            alphabet, S = AB, SPECIAL_WORD_SETS[name]()
        else:
            alphabet, S = word_basis(name)
        rng = random.Random(5011)
        total = 0
        for n in [0, 128] + [rng.randint(0, 128) for _ in range(30)]:
            letters = tuple(rng.randrange(len(alphabet)) for _ in range(n))
            want, rewrites = reference_rewrite_word(letters, S)
            monkeypatch.delenv("GS_MAX_STEPS", raising=False)
            assert rewrite_word(letters, S) == want, letters
            if rewrites:
                monkeypatch.setenv("GS_MAX_STEPS", str(rewrites))
                assert rewrite_word(letters, S) == want, letters
            if rewrites > 1:
                monkeypatch.setenv("GS_MAX_STEPS", str(rewrites - 1))
                with pytest.raises(StepLimitExceeded):
                    rewrite_word(letters, S)
            total += rewrites
        assert total > 0 or name == "empty-lead"


def _random_poly(rng, alphabet, max_deg=4, field=Fraction):
    terms = {}
    for _ in range(rng.randrange(1, 5)):
        n = rng.randrange(max_deg + 1)
        word = Word(alphabet, tuple(rng.randrange(len(alphabet)) for _ in range(n)))
        terms[word] = field(rng.randint(-4, 4))
    return NcPolynomial(alphabet, terms)


def assert_checked_twins(words, alphabet):
    """Each word equals, and hashes as, the checked Word of its letters."""
    for u in words:
        twin = Word(alphabet, u.letters)
        assert type(u) is Word and type(u.letters) is tuple and u.alphabet == alphabet
        assert u == twin and hash(u) == hash(twin) and str(u) == str(twin)


def assert_checked_poly(f: NcPolynomial):
    assert_checked_twins(f.terms, f.alphabet)
    rebuilt = NcPolynomial(f.alphabet, {Word(f.alphabet, u.letters): c for u, c in f.terms.items()})
    assert rebuilt == f and list(rebuilt.terms) == list(f.terms)
    assert all(rebuilt.terms[u] == c for u, c in f.terms.items())


def brute_irr(S, alphabet, d):
    return [u for n in range(d + 1) for u in all_words(alphabet, n) if brute_match(u.letters, S) is None]


def _three_term_relation(rng, alphabet, field):
    words = set()
    while len(words) < 3:
        words.add(tuple(rng.randrange(len(alphabet)) for _ in range(rng.randint(1, 3))))
    return NcPolynomial(alphabet, {Word(alphabet, u): field(rng.choice([-3, -2, -1, 1, 2, 5]))
                                   for u in words})


class TestTrustedWordsAgainstChecked:
    """Words the engine builds from its own letters skip the letter check; they
    must be the words the checked constructor builds from the same letters."""

    @pytest.mark.parametrize("field", [Fraction, prime_field(32003)], ids=["Q", "GF32003"])
    def test_seeded_algebra_bases(self, field):
        rng = random.Random(7919)
        for _ in range(8):
            rels = [_three_term_relation(rng, XYZ, field) for _ in range(2)]
            S = shirshov_complete(rels, CompletionConfig(max_degree=5)).basis
            irr = irr_words(S, 4)
            assert_checked_twins(irr, XYZ)
            assert irr == brute_irr(S, XYZ, 4)
            for _ in range(20):
                assert_checked_poly(reduce(_random_poly(rng, XYZ, field=field), S))
            for i in S.active:
                for j in S.active:
                    for c in compositions(S, i, j):
                        assert_checked_twins([c.w], XYZ)
                        assert_checked_poly(c.value)

    @pytest.mark.parametrize("name", ["bicyclic", "plactic-3", "chinese-3", "free-comm-3", "s3"])
    def test_catalog_monoids(self, name):
        p = parse_presentation(S3) if name == "s3" else catalog(name)
        res = complete_presentation(p, CompletionConfig(max_degree=7 if name == "plactic-3" else None))
        irr = irr_words(res.basis, 5)
        assert_checked_twins(irr, p.alphabet)
        assert irr == brute_irr(res.basis, p.alphabet, 5)
        rng = random.Random(7927)
        k = len(p.alphabet)
        for _ in range(100):
            u = Word(p.alphabet, [rng.randrange(k) for _ in range(rng.randint(0, 24))])
            nf = normal_form_word(u, res)
            if nf is not ZERO:
                assert_checked_twins([nf], p.alphabet)
                assert nf.letters == rewrite_word(u.letters, res.basis)
            assert_checked_poly(reduce(NcPolynomial.monomial(u), res.basis))

    def test_pbw_factors_and_brackets(self):
        res = complete_presentation(catalog("sl2"))
        alphabet = res.basis.alphabet
        monomials = pbw_basis(res, 4)
        assert len(monomials) == 35
        for m in monomials:
            assert_checked_twins(m.factors, alphabet)
            for u in m.factors:
                assert_checked_poly(expand_bracket(lsw_bracket(u)))
