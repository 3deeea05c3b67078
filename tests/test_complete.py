import itertools
import json
import random
import sys
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest

from shirshov import (
    Alphabet,
    CompletionConfig,
    NcPolynomial,
    RuleSet,
    Word,
    catalog,
    complete_presentation,
    compositions,
    is_gs_basis,
    parse_poly,
    parse_presentation,
    prime_field,
    reduce,
    shirshov_complete,
)
from shirshov import complete, rewrite, words
from shirshov.complete import (
    CappedCompletionError,
    EmptyInputError,
    STATUS_CAPPED_DEGREE,
    STATUS_CAPPED_RULES,
    STATUS_COMPLETE,
    STATUS_UNIT_IDEAL,
    walk_compositions,
)
from shirshov.present import CATALOG_NAMES, to_algebra_relations
from shirshov.rewrite import _reduce_ints, irr_counts

from oracles import (
    DictPoly,
    nested_lead,
    random_ideal_element,
    reference_complete,
    reference_compositions,
    reference_reduce_with_steps,
)
from test_golden import CASES as GOLDEN_CASES, EXTRA_SOURCES, _chinese_source, _source as golden_source

FEH = Alphabet(("f", "e", "h"))
PQ = Alphabet(("q", "p"))
XYZ = Alphabet(("x", "y", "z"))
BA = Alphabet(("a", "b"))


def sl2_relations():
    return [
        parse_poly("h*e - e*h - 2*e", FEH),
        parse_poly("h*f - f*h + 2*f", FEH),
        parse_poly("e*f - f*e - h", FEH),
    ]


def non_jacobi_relations():
    # the table [x,y] = x, [y,z] = y, [x,z] = 0 transcribed with x < y < z
    return [
        parse_poly("y*x - x*y - x", XYZ),
        parse_poly("z*y - y*z - y", XYZ),
        parse_poly("z*x - x*z", XYZ),
    ]


class TestCompositions:
    def test_sl2_intersection_value(self):
        s1 = parse_poly("h*e - e*h - 2*e", FEH)
        s2 = parse_poly("e*f - f*e - h", FEH)
        comps = compositions(RuleSet([s1, s2]), 0, 1)
        assert len(comps) == 1
        c = comps[0]
        assert str(c.w) == "hef"
        expected = parse_poly("h*e - e*h - 2*e", FEH) * parse_poly("f", FEH) - parse_poly(
            "h", FEH
        ) * parse_poly("e*f - f*e - h", FEH)
        assert c.value == expected
        assert c.value == parse_poly("-e*h*f - 2*e*f + h*f*e + h*h", FEH)

    def test_inclusion_value(self):
        s1 = parse_poly("a*b*a - a", BA)
        s2 = parse_poly("a*b - b", BA)
        comps = [c for c in compositions(RuleSet([s1, s2]), 0, 1) if c.overlap.kind == "inclusion"]
        assert len(comps) == 1
        c = comps[0]
        assert str(c.w) == "aba"
        assert c.value == parse_poly("b*a - a", BA)

    def test_no_self_overlap(self):
        s = parse_poly("y*x - x*y", Alphabet(("x", "y")))
        assert compositions(RuleSet([s]), 0, 0) == []

    def test_value_below_w(self):
        rng = random.Random(61)
        rels = sl2_relations() + [parse_poly("h*h*e - e", FEH)]
        S = RuleSet(rels)
        for i in range(len(rels)):
            for j in range(len(rels)):
                for c in compositions(S, i, j):
                    if not c.value.is_zero():
                        from oracles import cmp_deglex

                        assert cmp_deglex(c.value.leading()[0], c.w) == -1


@pytest.fixture
def reduce_steps(monkeypatch):
    """The step count of each reduction the walk and completion run, in order."""
    steps = []

    def counting(*args):
        out, D, n = _reduce_ints(*args)
        steps.append(n)
        return out, D, n

    monkeypatch.setattr(rewrite, "_reduce_ints", counting)
    return steps


def _random_rule(rng, alphabet, field, lead=None):
    """A monic rule: a random nonempty lead (or the given one) plus up to
    three random terms below it."""
    k = len(alphabet)
    if lead is None:
        lead = tuple(rng.randrange(k) for _ in range(rng.randint(1, 4)))
    terms = {Word(alphabet, lead): field(1)}
    for _ in range(rng.randrange(4)):
        n = rng.randrange(len(lead))
        terms[Word(alphabet, tuple(rng.randrange(k) for _ in range(n)))] = field(rng.randint(-3, 3))
    return NcPolynomial(alphabet, terms)


class TestCompositionsAgainstReference:
    """Values built in one pass over letter tuples, on first read, must equal
    the polynomial formula, for the same compositions in the same order."""

    @pytest.mark.parametrize("field", [Fraction, prime_field(32003)], ids=["Q", "GF32003"])
    def test_same_sequence_and_values(self, field):
        rng = random.Random(4127)
        AB = Alphabet(("x", "y"))
        # inclusions of either orientation: the first rule's lead holds the
        # second's (i_holds_j), or the reverse; equal_length: compositions of
        # distinct leads of equal length
        seen = {"intersection": 0, "inclusion": 0, "self": 0, "equal_leads": 0,
                "i_holds_j": 0, "j_holds_i": 0, "equal_length": 0}
        for trial in range(300):
            f = _random_rule(rng, AB, field)
            if trial % 3 == 0:
                g = _random_rule(rng, AB, field, lead=f.leading()[0].letters)
            else:
                g = _random_rule(rng, AB, field)
            for s1, s2, i, j in ((f, g, 0, 1), (g, f, 3, 2), (f, f, 0, 0), (g, g, 1, 1)):
                comps = compositions(RuleSet([f, g, f, g]), i, j)
                got = [
                    (c.source, c.overlap.kind, c.overlap.a, c.overlap.b,
                     c.w.letters, list(c.value.terms.items()))
                    for c in comps
                ]
                want = [
                    (source, kind, a, b, w, list(value.terms.items()))
                    for source, kind, a, b, w, value in reference_compositions(s1, s2, i, j)
                ]
                assert got == want
                u, v = s1.leading()[0].letters, s2.leading()[0].letters
                for entry in got:
                    seen[entry[1]] += 1
                    if i == j:
                        seen["self"] += 1
                    elif entry[2] == entry[3] == ():
                        seen["equal_leads"] += 1
                    elif entry[1] == "inclusion":
                        seen["i_holds_j" if entry[0] == (i, j) else "j_holds_i"] += 1
                    if u != v and len(u) == len(v):
                        seen["equal_length"] += 1
        assert min(seen.values()) > 50, seen

    @pytest.mark.parametrize("field", [Fraction, prime_field(32003)], ids=["Q", "GF32003"])
    def test_fractional_coefficients(self, field):
        # rules of integer form scale L > 1 over Q: both rewrite steps rescale
        # D, and the value and its reduction must still match the polynomials.
        # reduce_with_steps shares _reduce_ints, so the reduction's reference is
        # the polynomial slow path, and a step that grows D must rescale the
        # numerators already out
        rng = random.Random(4133)
        AB = Alphabet(("x", "y"))
        scaled = rescaled = 0
        for trial in range(200):
            f, g = (
                NcPolynomial(AB, {w: field(rng.randint(1, 5)) / field(rng.randint(1, 6))
                                  for w in _random_rule(rng, AB, Fraction).terms}).monic()
                for _ in range(2)
            )
            S = RuleSet([f, g])
            scaled += S.tails[0][0] > 1 and S.tails[1][0] > 1
            for i, j in ((0, 1), (1, 0), (0, 0)):
                want = reference_compositions(S[i], S[j], i, j)
                comps = compositions(S, i, j)
                assert [c.value for c in comps] == [entry[-1] for entry in want]
                for c in comps:
                    terms, D0 = c.ints()
                    out, D, steps = _reduce_ints(S, terms, D0)
                    assert list(out) == sorted(out, reverse=True)
                    residue = NcPolynomial._from_ints(S.alphabet, S.field, out, D)
                    assert (residue, steps) == reference_reduce_with_steps(c.value, S)
                    rescaled += len(out) > 1 and D > D0  # D grew in a reduction with several words out
        if field is Fraction:
            assert scaled > 50 and rescaled > 50
        else:
            assert scaled == rescaled == 0

    def test_no_value_over_the_cap(self, monkeypatch, reduce_steps):
        # every w of these rules has degree >= 3; at cap 2 nothing is reduced,
        # so no composition value, and no polynomial at all, is built; overlaps
        # are letter tuples, so neither compositions() nor a capped walk builds
        # a word
        S = RuleSet(non_jacobi_relations() + [parse_poly("z*z*y - x", XYZ)])
        rng = random.Random(4129)
        pairs = []
        for trial in range(100):
            f = _random_rule(rng, XYZ, Fraction)
            lead = f.leading()[0].letters if trial % 3 == 0 else None
            pairs.append(RuleSet([f, _random_rule(rng, XYZ, Fraction, lead=lead)]))
        built = []
        init, from_ints, coefficient = NcPolynomial.__init__, NcPolynomial._from_ints, NcPolynomial._coefficient

        def counting_init(self, *args, **kwargs):
            built.append("NcPolynomial")
            init(self, *args, **kwargs)

        def counting_from_ints(*args):
            built.append("NcPolynomial")
            return from_ints(*args)

        def counting_coefficient(f, n):
            # where a numerator becomes a field element
            built.append("coefficient")
            return coefficient(f, n)

        set_letters = words._set_letters

        def counting_set_letters(w, letters):
            # the checked Word(...) and the engine's _trusted_word both store
            # their letters here (patching Word.__new__ could not be undone)
            built.append("Word")
            set_letters(w, letters)

        monkeypatch.setattr(NcPolynomial, "__init__", counting_init)
        monkeypatch.setattr(NcPolynomial, "_from_ints", staticmethod(counting_from_ints))
        monkeypatch.setattr(NcPolynomial, "_coefficient", counting_coefficient)
        monkeypatch.setattr(words, "_set_letters", counting_set_letters)
        comps = [
            c
            for T in pairs
            for i, j in ((0, 1), (0, 0))
            for c in compositions(T, i, j)
        ]
        assert {c.overlap.kind for c in comps} == {"intersection", "inclusion"}
        assert built == []
        walked = list(walk_compositions(S, 2))
        assert {rec.composition.overlap.kind for rec in walked} == {"intersection", "inclusion"}
        assert all(rec.residue is None for rec in walked)
        assert reduce_steps == []  # nothing reduced
        assert is_gs_basis(S, 2) == (True, [])
        assert built == []
        value = walked[0].composition.value
        assert built == ["NcPolynomial"]  # numerators, until its terms are read
        assert value.terms
        assert set(built) == {"NcPolynomial", "Word", "coefficient"}
        built.clear()
        Word(XYZ, (0,))
        words._trusted_word(XYZ, (0,))
        assert built == ["Word", "Word"]

    def test_leads_come_from_the_rule_set(self, monkeypatch):
        # compositions scan RuleSet.leads as letter tuples: no lead is read
        # back from a polynomial, and the Word-level find_* adapters never run
        S = RuleSet(non_jacobi_relations() + [parse_poly("z*z*y - x", XYZ)])
        rng = random.Random(4131)
        pairs = []
        for trial in range(100):
            f = _random_rule(rng, XYZ, Fraction)
            lead = f.leading()[0].letters if trial % 3 == 0 else None
            pairs.append(RuleSet([f, _random_rule(rng, XYZ, Fraction, lead=lead)]))

        def forbidden(*args, **kwargs):
            raise AssertionError("lead read outside RuleSet.leads")

        monkeypatch.setattr(NcPolynomial, "leading", forbidden)
        for original in (words.find_intersections, words.find_inclusions):
            for module in [m for n, m in sys.modules.items() if n.split(".")[0] == "shirshov"]:
                for name, obj in list(vars(module).items()):
                    if obj is original:
                        monkeypatch.setattr(module, name, forbidden)
        comps = [c for T in pairs for i, j in ((0, 1), (1, 0), (0, 0)) for c in compositions(T, i, j)]
        assert {c.overlap.kind for c in comps} == {"intersection", "inclusion"}
        assert any(c.overlap.a == c.overlap.b == () for c in comps)  # equal leads
        walked = list(walk_compositions(S, 2))
        assert {rec.composition.overlap.kind for rec in walked} == {"intersection", "inclusion"}

    def test_word_adapters_check_then_scan(self):
        # find_* check the alphabet and emptiness of Word arguments, then
        # return exactly what compositions' tuple scanners return
        w = XYZ.word
        for f, g in ((w("x y x"), w("x")), (w("x"), w("x y x")), (w("x y"), w("y x"))):
            assert words.find_intersections(f, g) == words._intersections(f.letters, g.letters)
            assert words.find_inclusions(f, g) == words._inclusions(f.letters, g.letters)
        for find in (words.find_intersections, words.find_inclusions):
            with pytest.raises(words.AlphabetMismatchError):
                find(w("x y"), BA.word("a b"))
            for f, g in ((w("x"), XYZ.empty()), (XYZ.empty(), w("x"))):
                with pytest.raises(ValueError, match="nonempty words"):
                    find(f, g)


class TestRuleCap:
    """The drain stops once the active rules outnumber max_rules."""

    def test_chinese_3_capped_at_8_rules(self):
        res = complete_presentation(catalog("chinese-3"), CompletionConfig(max_rules=8))
        assert res.status == STATUS_CAPPED_RULES
        assert res.stats["compositions_processed"] == 5
        assert len(res.basis) == 9  # the rule that crossed the cap is kept
        with pytest.raises(CappedCompletionError, match="capped_rules"):
            res.certified_basis()

    def test_chinese_3_completes_under_20_rules(self):
        res = complete_presentation(catalog("chinese-3"), CompletionConfig(max_rules=20))
        assert res.status == STATUS_COMPLETE
        assert res.stats["compositions_processed"] == 16
        assert res.certified_basis() is res.basis


class TestShirshovComplete:
    def test_bicyclic_no_overlaps(self):
        res = shirshov_complete([parse_poly("p*q - 1", PQ)])
        assert res.status == STATUS_COMPLETE
        assert len(res.basis) == 1

    def test_sl2_already_complete(self):
        res = shirshov_complete(sl2_relations())
        assert res.status == STATUS_COMPLETE
        assert res.stats["rules_added"] == 3
        assert sorted(str(r.leading()[0]) for r in res.basis) == ["ef", "he", "hf"]

    def test_non_jacobi_adds_rule(self):
        res = shirshov_complete(non_jacobi_relations())
        assert res.status == STATUS_COMPLETE
        assert res.stats["rules_added"] > 3
        leads = [str(r.leading()[0]) for r in res.basis]
        # the zyx composition residue -x, monicized; interreduction then
        # rewrites away the two input rules whose leads contain x
        assert "x" in leads

    def test_empty_input(self):
        with pytest.raises(EmptyInputError):
            shirshov_complete([])

    def test_unit_ideal(self):
        res = shirshov_complete([parse_poly("x - 1", Alphabet(("x",)))])
        # x = 1 and nothing else: still a proper quotient; force a scalar
        res2 = shirshov_complete(
            [parse_poly("x", Alphabet(("x",))), parse_poly("x - 1", Alphabet(("x",)))]
        )
        assert res2.status == STATUS_UNIT_IDEAL
        assert res.status == STATUS_COMPLETE
        assert is_gs_basis(res2.basis) == (True, [])

    @pytest.mark.parametrize(
        "texts, added, steps",
        [
            (["x", "x - 1"], 1, 1),
            # x - 1 reduces to -1: the later inputs are neither reduced nor installed
            (["x", "x - 1", "y*y*y - y*x", "y*x*y - x*y*y"], 1, 1),
            (["2", "x*y - y"], 0, 0),
            # x - 2 retires x*x - 1 and x*y - 1; requeued first, x*x - 1 reduces
            # to 3 in two steps, and x*y - 1 is then not reduced
            (["x*x - 1", "x*y - 1", "x - 2"], 3, 2),
        ],
    )
    def test_unit_ideal_reduces_nothing_more(self, texts, added, steps):
        A = Alphabet(("x", "y"))
        res = shirshov_complete([parse_poly(t, A) for t in texts])
        assert res.status == STATUS_UNIT_IDEAL
        assert (res.stats["rules_added"], res.stats["reduction_steps"]) == (added, steps)
        assert res.certificates == [] and [str(r) for r in res.basis] == ["1"]

    def test_unit_ideal_basis_keeps_the_field(self):
        # the unit rule is 1 of the relations' field, so the field's queries still reduce
        F = prime_field(7)
        A = Alphabet(("x", "y"))
        res = shirshov_complete([parse_poly("x - 1", A, field=F), parse_poly("x - 2", A, field=F)])
        assert res.status == STATUS_UNIT_IDEAL
        (one,) = res.basis[0].terms.values()
        assert type(one) is F
        assert reduce(parse_poly("x*y + 3", A, field=F), res.basis).is_zero()

    def test_degree_cap_reported(self):
        # x*x -> x*y spawns the infinite family x y^n x -> x y^(n+1);
        # the cap must be reported honestly, never as complete
        f = parse_poly("x*x - x*y", Alphabet(("y", "x")))
        res = shirshov_complete([f], CompletionConfig(max_degree=5))
        assert res.status == STATUS_CAPPED_DEGREE

    def test_ideal_preservation(self):
        rels = non_jacobi_relations()
        res = shirshov_complete(rels)
        for f in rels:
            assert reduce(f, res.basis).is_zero()

    def test_post_completion_cd_property(self):
        rng = random.Random(67)
        res = shirshov_complete(non_jacobi_relations())
        for _ in range(200):
            f = random_ideal_element(rng, res.basis, XYZ, max_degree=5, n_terms=3)
            assert reduce(f, res.basis).is_zero()
            if not f.is_zero():
                assert res.basis.leftmost_match(f.leading()[0].letters) is not None

    def test_certificates_rereduce_to_zero(self):
        res = shirshov_complete(non_jacobi_relations())
        assert res.status == STATUS_COMPLETE
        for rec in res.certificates:
            assert reduce(rec.residue, res.basis).is_zero()

    def test_determinism_byte_identical(self):
        a = shirshov_complete(non_jacobi_relations()).to_json()
        b = shirshov_complete(non_jacobi_relations()).to_json()
        assert a == b

    def test_json_shape(self):
        doc = json.loads(shirshov_complete(sl2_relations()).to_json())
        assert doc["format"] == 1
        assert doc["status"] == "complete"
        assert [e["lead"] for e in doc["basis"]] == ["ef", "hf", "he"]
        assert set(doc["stats"]) >= {"compositions_processed", "rules_added", "reduction_steps"}

    def test_interreduction_shrinks_basis(self):
        # aba - a and ab - b: completion with interreduction rewrites the
        # first rule away (aba -> ba -> ...), leaving a small reduced basis
        rels = [parse_poly("a*b*a - a", BA), parse_poly("a*b - b", BA)]
        res = shirshov_complete(rels)
        assert res.status == STATUS_COMPLETE
        ok, fails = is_gs_basis(res.basis)
        assert ok and not fails
        for lead_i in res.basis.leads:
            for j, lead_j in enumerate(res.basis.leads):
                if lead_i is lead_j:
                    continue
                # no lead is a subword of another
                assert not any(
                    lead_j[s : s + len(lead_i)] == lead_i
                    for s in range(len(lead_j) - len(lead_i) + 1)
                )


def _assert_drain_certified(res, cap):
    """A complete or capped_degree result: the drain's skip count is the final
    basis's over-cap count, and every composition within the cap is trivial."""
    if res.status in (STATUS_COMPLETE, STATUS_CAPPED_DEGREE):
        walked = walk_compositions(res.basis, cap)
        assert res.stats["compositions_skipped"] == sum(rec.residue is None for rec in walked)
        assert is_gs_basis(res.basis, cap) == (True, [])


class TestCertifyingPass:
    """The drain is the whole completion: what it reports needs no second
    walk of the final basis, also when interreduction retired rules."""

    @pytest.mark.parametrize("field", [Fraction, prime_field(32003)], ids=["Q", "GF32003"])
    def test_random_sets_certify(self, field):
        rng = random.Random(9151)
        retired_and_complete = 0
        for _ in range(100):
            alphabet, cap = rng.choice((BA, XYZ)), rng.randint(4, 5)
            rels = [_random_rule(rng, alphabet, field) for _ in range(rng.randint(2, 3))]
            res = shirshov_complete(rels, CompletionConfig(max_degree=cap, max_rules=25))
            _assert_drain_certified(res, cap)
            if res.status == STATUS_COMPLETE:
                # rules_added also counts the rules interreduction retired
                retired_and_complete += res.stats["rules_added"] > len(res.basis)
        assert retired_and_complete > 10

    @pytest.mark.parametrize(
        "name,max_deg", GOLDEN_CASES, ids=[f"{n}@{d or 'default'}" for n, d in GOLDEN_CASES]
    )
    def test_sources_certify(self, name, max_deg):
        # the catalog and the golden extra sources, at the golden caps
        cap = max_deg or 6
        presentation = parse_presentation(golden_source(name))
        res = complete_presentation(presentation, CompletionConfig(max_degree=cap))
        _assert_drain_certified(res, cap)


class TestNoNestedActiveLeads:
    """Completion reduces only against sets where no active lead lies inside
    another, so RuleSet.leftmost_match's first match to end is the leftmost
    one there, and completion output does not depend on which it takes."""

    @pytest.fixture
    def watch(self, monkeypatch):
        checked = set()  # active index tuples already found free of nesting
        calls = []

        def watched(S, terms, D):
            active = tuple(S.active)
            if active not in checked:
                assert nested_lead(S) is None, [S.leads[i] for i in nested_lead(S)]
                checked.add(active)
            calls.append(active)
            return _reduce_ints(S, terms, D)

        # completion reduces its inputs, retired rules and compositions all here
        monkeypatch.setattr(rewrite, "_reduce_ints", watched)
        return calls

    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_catalog(self, watch, name):
        complete_presentation(catalog(name))
        assert watch

    @pytest.mark.parametrize("name", ["retiring-complete", "retiring-capped"])
    def test_retiring_sources(self, watch, name):
        res = complete_presentation(parse_presentation(EXTRA_SOURCES[name]), CompletionConfig(max_degree=5))
        assert res.stats["rules_added"] > len(res.basis)  # interreduction retired rules
        assert watch

    @pytest.mark.parametrize("field", [Fraction, prime_field(32003)], ids=["Q", "GF32003"])
    def test_random_algebra_sets(self, watch, field):
        rng = random.Random(9173)
        retired = 0
        for _ in range(30):
            alphabet, cap = rng.choice((BA, XYZ)), rng.randint(4, 5)
            rels = [_random_rule(rng, alphabet, field) for _ in range(rng.randint(2, 3))]
            res = shirshov_complete(rels, CompletionConfig(max_degree=cap, max_rules=25))
            retired += res.stats["rules_added"] > len(res.basis)
        assert retired and watch


def _properly_contains(u: tuple, v: tuple) -> bool:
    return len(u) > len(v) and any(u[s : s + len(v)] == v for s in range(len(u) - len(v) + 1))


class TestRetirement:
    """Each _Loop.add_rule retires exactly the active rules whose lead properly
    contains the new lead, in ascending order, by a brute-force subword scan."""

    @pytest.fixture
    def adds(self, monkeypatch):
        log = []  # one (rule set, expected, retired) entry per add_rule call
        add_rule, retire = complete._Loop.add_rule, RuleSet.retire

        def watched_add_rule(self, residue):
            (_, lead), *_ = residue.ints  # the residue's deg-lex-greatest word
            active = self.basis.active if lead else ()  # an empty lead ends the run
            log.append((self.basis, [i for i in active if _properly_contains(self.basis.leads[i], lead)], []))
            add_rule(self, residue)

        def watched_retire(self, idx):
            basis, _, retired = log[-1]  # add_rule retires before it requeues
            assert basis is self
            retired.append(idx)
            retire(self, idx)

        monkeypatch.setattr(complete._Loop, "add_rule", watched_add_rule)
        monkeypatch.setattr(RuleSet, "retire", watched_retire)
        return log

    @staticmethod
    def _retiring_adds(log) -> int:
        for _, expected, retired in log:
            assert retired == expected
        return sum(bool(expected) for _, expected, _ in log)

    @pytest.mark.parametrize(
        "name,max_deg", GOLDEN_CASES, ids=[f"{n}@{d or 'default'}" for n, d in GOLDEN_CASES]
    )
    def test_sources(self, adds, name, max_deg):
        res = complete_presentation(parse_presentation(golden_source(name)), CompletionConfig(max_degree=max_deg))
        self._retiring_adds(adds)
        assert adds and res.stats["rules_added"] - len(res.basis) == sum(len(r) for _, _, r in adds)

    @pytest.mark.parametrize("field", [Fraction, prime_field(32003)], ids=["Q", "GF32003"])
    def test_random_algebra_sets(self, adds, field):
        rng = random.Random(9181)
        for _ in range(30):
            alphabet, cap = rng.choice((BA, XYZ)), rng.randint(4, 5)
            rels = [_random_rule(rng, alphabet, field) for _ in range(rng.randint(2, 3))]
            shirshov_complete(rels, CompletionConfig(max_degree=cap, max_rules=25))
        assert self._retiring_adds(adds) > 10

    def test_equal_lead_is_not_retired(self, adds):
        # completion only adds irreducible leads; a direct add_rule can repeat one
        basis = RuleSet()
        basis._over(BA, Fraction)
        loop = complete._Loop(basis)
        for text in ("b*a - a", "b*a - 1", "b*b*a - b", "b - 1"):
            loop.add_rule(parse_poly(text, BA))
        assert [expected for _, expected, _ in adds[:4]] == [[], [], [], [0, 1, 2]]
        self._retiring_adds(adds)


class TestIsGsBasis:
    def test_sl2_yes(self):
        S = RuleSet(sl2_relations())
        ok, fails = is_gs_basis(S)
        assert ok and fails == []

    def test_non_jacobi_no_with_residue(self):
        S = RuleSet(non_jacobi_relations())
        ok, fails = is_gs_basis(S)
        assert not ok
        assert len(fails) == 1
        rec = fails[0]
        assert str(rec.composition.w) == "zyx"
        # residue is -x up to sign
        assert rec.residue in (parse_poly("-x", XYZ), parse_poly("x", XYZ))

    def test_empty_vacuous(self):
        ok, fails = is_gs_basis(RuleSet())
        assert ok and fails == []

    @pytest.mark.parametrize("i", range(4))
    def test_retired_rule_left_out(self, i, reduce_steps):
        rules = non_jacobi_relations() + [parse_poly("z*z*y - x", XYZ)]
        S = RuleSet(rules)
        S.retire(i)
        # the same walk, residues, step counts and verdict as over the other rules alone
        rest = RuleSet(r for k, r in enumerate(rules) if k != i)

        def shape(T):
            reduce_steps.clear()
            walk = list(walk_compositions(T))  # no cap: one reduction per record
            assert len(reduce_steps) == len(walk)
            return [(rec.composition.overlap.kind, str(rec.composition.w), str(rec.residue), n)
                    for rec, n in zip(walk, reduce_steps)]

        walked = list(walk_compositions(S))
        assert walked and all(i not in rec.composition.source for rec in walked)
        assert shape(S) == shape(rest)
        ok, failures = is_gs_basis(S)
        ok_rest, failures_rest = is_gs_basis(rest)
        assert all(i not in rec.composition.source for rec in failures)
        assert ok == ok_rest
        assert [rec.residue for rec in failures] == [rec.residue for rec in failures_rest]


def _fractional_rule(rng, alphabet, field):
    """_random_rule's words with each coefficient over a denominator up to 4, made monic."""
    f = _random_rule(rng, alphabet, field)
    return NcPolynomial(alphabet, {w: c / field(rng.randint(1, 4)) for w, c in f.terms.items()}).monic()


class TestIntegerResidues:
    """is_gs_basis keeps each residue as ints over D, its terms built only when
    read: its failures must be, in walk order, the compositions whose value the
    polynomial reference reduction (same match rule, nested leads or not) takes
    to a nonzero residue, with that residue."""

    @pytest.mark.parametrize("field", [Fraction, prime_field(32003)], ids=["Q", "GF32003"])
    def test_failures_are_the_nonzero_reference_residues(self, field):
        rng = random.Random(4157)
        seen = Counter()
        for _ in range(150):
            S = RuleSet(_fractional_rule(rng, BA, field) for _ in range(rng.randint(2, 3)))
            want = []
            for a, i in enumerate(S.active):
                for j in list(S.active)[a:]:
                    for comp in compositions(S, i, j):
                        residue, _ = reference_reduce_with_steps(comp.value, S)
                        if not residue.is_zero():
                            want.append((comp, residue))
            ok, failures = is_gs_basis(S)
            assert ok == (not want)
            assert [(rec.composition, rec.residue) for rec in failures] == want
            seen["failing sets"] += not ok
            seen["D > 1"] += sum(rec.residue.den > 1 for rec in failures)
        assert seen["failing sets"] > 80, seen
        if field is Fraction:
            assert seen["D > 1"] > 100, seen
        else:
            assert seen["D > 1"] == 0, seen


class TestInputValidation:
    """Every relation's alphabet and field is checked before the first
    reduction, so a unit relation listed first hides no mismatch."""

    @pytest.mark.parametrize("first", [0, 1])
    @pytest.mark.parametrize("head", ["2", "x*y - y"])
    def test_alphabet_mismatch(self, head, first):
        rels = [parse_poly(head, Alphabet(("x", "y"))), parse_poly("z*x - x", XYZ)]
        with pytest.raises(words.AlphabetMismatchError):
            shirshov_complete(rels[first:] + rels[:first])

    @pytest.mark.parametrize("first", [0, 1])
    @pytest.mark.parametrize("head", ["2", "x*y - y"])
    def test_field_mismatch(self, head, first):
        A = Alphabet(("x", "y"))
        rels = [parse_poly(head, A), parse_poly("y*x - x", A, field=prime_field(7))]
        with pytest.raises(TypeError):
            shirshov_complete(rels[first:] + rels[:first])

    @pytest.mark.parametrize("first", [0, 1])
    def test_zero_relation(self, first):
        rels = [parse_poly("y*x - x", XYZ), NcPolynomial.zero(XYZ)]
        for make in (shirshov_complete, RuleSet):
            with pytest.raises(ValueError, match="^zero polynomial is not a relation$"):
                make(rels[first:] + rels[:first])

    def test_degree_cap_below_the_inputs(self):
        rels = [parse_poly("y*x - x", XYZ), parse_poly("z*y*x - 1", XYZ)]
        with pytest.raises(ValueError, match="^max_degree must cover the input relation degrees$"):
            shirshov_complete(rels, CompletionConfig(max_degree=2))
        assert shirshov_complete(rels, CompletionConfig(max_degree=3)).status == STATUS_COMPLETE


def _algebra_benchmark_sets():
    """The complete-algebra benchmark's relation sets in catalog order: 24 fixed
    pairs of 3-term relations of degree <= 3 over x y z, words and
    coefficients drawn from two generators seeded 0, each over Q and over
    GF(32003)."""
    monomials = [w for d in range(4) for w in itertools.product(range(3), repeat=d)]
    word_rng, coeff_rng = random.Random(0), random.Random(0)
    shapes = []
    for _ in range(24):
        shape = []
        for _ in range(2):
            while True:
                ws = word_rng.sample(monomials, 3)
                if max(len(w) for w in ws) >= 2:
                    break
            shape.append(ws)
        shapes.append([[(w, coeff_rng.choice((-3, -2, -1, 1, 2, 3))) for w in ws] for ws in shape])
    return [
        [NcPolynomial(XYZ, {Word(XYZ, w): field(c) for w, c in rel}) for rel in rels]
        for rels in shapes
        for field in (Fraction, prime_field(32003))
    ]


class TestPolynomialsAtTheBoundary:
    """Completion and is_gs_basis keep rules and residues in integer form: they
    build no Word and no field element, never call the public constructor,
    reduce_with_steps or RuleSet.add, and call monic() only as the install's
    own step.  A residue's words and coefficients are built only when read."""

    def test_only_certificates_build_polynomials(self, monkeypatch):
        sets = _algebra_benchmark_sets()
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        def count_words_and_coefficients():
            monkeypatch.setattr(words, "_set_letters", counted("Word", words._set_letters))
            monkeypatch.setattr(NcPolynomial, "_coefficient", counted("coefficient", NcPolynomial._coefficient))

        count_words_and_coefficients()
        monkeypatch.setattr(NcPolynomial, "__init__", counted("NcPolynomial", NcPolynomial.__init__))
        monkeypatch.setattr(NcPolynomial, "monic", counted("monic", NcPolynomial.monic))
        monkeypatch.setattr(RuleSet, "_install", counted("install", RuleSet._install))
        monkeypatch.setattr(RuleSet, "add", counted("add", RuleSet.add))
        for module in (rewrite, complete):
            if hasattr(module, "reduce_with_steps"):
                monkeypatch.setattr(module, "reduce_with_steps", counted("reduce_with_steps", rewrite.reduce_with_steps))
        certificates, bases = [], []
        for rels in sets:
            res = shirshov_complete(rels, CompletionConfig(max_degree=8))
            certificates += res.certificates
            bases.append(res.basis)
        assert len(certificates) == 618
        assert calls.pop("monic") == calls.pop("install") > 0
        assert calls == {}
        walked = 0
        for basis in bases:
            assert is_gs_basis(basis, 8) == (True, [])
            walked += sum(rec.residue is not None for rec in walk_compositions(basis, 8))
        assert calls == {}
        monkeypatch.undo()
        assert walked == 600
        # reading a residue's terms builds its words and coefficients, on each read
        count_words_and_coefficients()
        residue = next(rec.residue for rec in certificates if not rec.residue.is_zero())
        assert residue.terms == residue.terms
        n = 2 * len(residue.ints)
        assert calls == {"Word": n, "coefficient": n}


def _non_monic(rng, field):
    """A random polynomial over x y z whose lead coefficient is seldom 1: signed
    numerators times a content of 1, 2 or 6, over denominators up to 4."""
    lead = tuple(rng.randrange(3) for _ in range(rng.randint(1, 3)))
    content = rng.choice((1, 2, 6))
    lower = [tuple(rng.randrange(3) for _ in range(rng.randrange(len(lead)))) for _ in range(rng.randrange(4))]
    return NcPolynomial(XYZ, {
        Word(XYZ, w): field(content * rng.choice((-3, -2, -1, 1, 2, 5))) / field(rng.choice((1, 1, 2, 3, 4)))
        for w in [lead] + lower
    })


class TestIntegerMonic:
    """Completion makes a residue monic on ints: over Q its primitive part with
    a positive lead, over GF(p) the residues times the lead's inverse.  The
    rule it installs must be the RuleSet of f made monic by the dict-of-
    coefficients oracle, whatever the residue's denominator, and be that
    polynomial."""

    @pytest.mark.parametrize("field", [Fraction, prime_field(32003)], ids=["Q", "GF32003"])
    def test_installed_rule_is_the_polynomial_monic(self, field):
        rng = random.Random(4139)
        seen = Counter()
        for _ in range(300):
            f = _non_monic(rng, field)
            monic = DictPoly.of(f).monic().poly()
            want = RuleSet([monic])
            basis = RuleSet()
            basis._over(XYZ, field)
            loop = complete._Loop(basis)
            terms, D = f.ints, f.den
            lc = f.leading()[1]
            seen["lead not 1"] += lc != 1
            seen["L > 1"] += want.tails[0][0] > 1
            if field is Fraction:
                seen["negative lead"] += lc < 0
                seen["content > 1"] += gcd(*terms.values()) > 1
            loop.adjoin(dict(terms), D)  # an input's path into completion
            # the same words with another content and sign
            loop.add_rule(f.scale(field(rng.choice((-6, -2, 3, 5)))))
            for i in (0, 1):
                assert (basis.leads[i], basis.tails[i]) == (want.leads[0], want.tails[0])
                assert basis[i] == monic
        assert seen["lead not 1"] > 200, seen
        if field is Fraction:
            assert min(seen.values()) > 50, seen
        else:
            assert seen["L > 1"] == 0

    @pytest.mark.parametrize("field", [Fraction, prime_field(32003)], ids=["Q", "GF32003"])
    def test_rule_set_takes_any_multiple(self, field):
        # RuleSet.add installs the monic multiple of whatever nonzero polynomial it is given
        rng = random.Random(6151)
        not_monic = 0
        for _ in range(300):
            f = _non_monic(rng, field)
            not_monic += f.leading()[1] != 1
            got, want = RuleSet([f]), RuleSet([DictPoly.of(f).monic().poly()])
            assert (got.leads, got.tails, got[0]) == (want.leads, want.tails, want[0])
        assert not_monic > 200


def _source_relations(source: str) -> list[NcPolynomial]:
    return to_algebra_relations(parse_presentation(source))


def _basis_json(res) -> str:
    """The basis as ``complete --json`` prints it."""
    return json.dumps(res.to_json_dict()["basis"], indent=2)


def _basis_terms(basis: RuleSet) -> dict:
    """{lead letters: {letters: coefficient}} per rule of basis."""
    return {f.leading()[0].letters: {w.letters: c for w, c in f.terms.items()} for f in basis.rules}


def _reduced_basis_inputs():
    """(label, relations, config): the catalog at its default cap, rank-5 and
    rank-6 Chinese and the golden retiring sources at their caps, chinese-3
    stopped by its rule cap, and the 48 algebra benchmark sets at cap 8."""
    out = [(name, to_algebra_relations(catalog(name)), CompletionConfig()) for name in CATALOG_NAMES]
    out += [(f"chinese-{n}@7", _source_relations(_chinese_source(n)), CompletionConfig(max_degree=7)) for n in (5, 6)]
    out += [(f"{name}@5", _source_relations(EXTRA_SOURCES[name]), CompletionConfig(max_degree=5))
            for name in ("retiring-complete", "retiring-capped")]
    out.append(("chinese-3 rules<=8", to_algebra_relations(catalog("chinese-3")), CompletionConfig(max_rules=8)))
    out += [(f"algebra-{i}", rels, CompletionConfig(max_degree=8)) for i, rels in enumerate(_algebra_benchmark_sets())]
    return out


class TestReducedBasis:
    """A complete run returns the reduced GS basis: the loop's active rules
    with their leads, each tail its normal form modulo the loop's rules.  A
    capped run returns the loop's active rules as they are."""

    def test_reduced_and_capped_bases(self, monkeypatch):
        loops = []

        class RecordingLoop(complete._Loop):
            def __init__(self, basis):
                super().__init__(basis)
                loops.append(self)

        monkeypatch.setattr(complete, "_Loop", RecordingLoop)
        status, tails_changed = {}, 0
        for label, rels, cfg in _reduced_basis_inputs():
            loops.clear()
            res = shirshov_complete(rels, cfg)
            (loop,) = loops
            S, basis = loop.basis, res.basis
            status[label] = res.status
            loop_rules = [S[i] for i in S.active]
            if res.status == STATUS_COMPLETE:
                assert sorted(basis.leads) == sorted(S.leads[i] for i in S.active), label
                for i in basis.active:
                    assert all(basis.leftmost_match(u) is None for u in basis.tails[i][1]), (label, basis[i])
                tails_changed += basis.rules != loop_rules
            else:
                assert basis.rules == loop_rules and basis.tails == [S.tails[i] for i in S.active], label
            assert irr_counts(basis, 8) == irr_counts(S, 8), label
        assert status["plactic-4"] == status["retiring-capped@5"] == STATUS_CAPPED_DEGREE
        assert status["chinese-3 rules<=8"] == STATUS_CAPPED_RULES
        assert Counter(status.values())[STATUS_COMPLETE] > 30 and tails_changed > 5, (status, tails_changed)


class TestRelationOrder:
    """The reduced GS basis is unique for the ideal and the order, so a
    complete run prints the same basis whatever order the relations come in."""

    @staticmethod
    def _assert_order_free(rels, cfg, orders):
        res = shirshov_complete(rels, cfg)
        assert res.status == STATUS_COMPLETE
        want = _basis_json(res)
        for order in orders:
            again = shirshov_complete([rels[k] for k in order], cfg)
            assert (again.status, _basis_json(again)) == (STATUS_COMPLETE, want)

    @staticmethod
    def _orders(n: int, seed: int, k: int = 3):
        rng = random.Random(seed)
        return [list(range(n))[::-1]] + [rng.sample(range(n), n) for _ in range(k)]

    @pytest.mark.parametrize("name", [n for n in CATALOG_NAMES if n not in ("plactic-3", "plactic-4")])
    def test_catalog(self, name):
        # the catalog entries that complete at the default cap
        rels = to_algebra_relations(catalog(name))
        self._assert_order_free(rels, CompletionConfig(), self._orders(len(rels), 7))

    @pytest.mark.parametrize("n", [5, 6])
    def test_chinese_at_cap_7(self, n):
        rels = _source_relations(_chinese_source(n))
        self._assert_order_free(rels, CompletionConfig(max_degree=7), self._orders(len(rels), n, k=7))

    @pytest.mark.parametrize("field", [0, 1], ids=["Q", "GF32003"])
    def test_algebra_sets(self, field):
        cfg = CompletionConfig(max_degree=8)
        completed = 0
        for rels in _algebra_benchmark_sets()[field::2]:
            if shirshov_complete(rels, cfg).status == STATUS_COMPLETE:
                self._assert_order_free(rels, cfg, [[1, 0]])
                completed += 1
        assert completed == 11


class TestReferenceCompletion:
    """The engine's complete bases equal those of a textbook completion on
    plain dicts (oracles.reference_complete), rule for rule."""

    @pytest.mark.parametrize("name,cap", [(n, 7) for n in CATALOG_NAMES] + [("plactic-3", 6)])
    def test_catalog(self, name, cap):
        # plactic-4 at 7 and plactic-3 at 6 end capped_degree, which the reference
        # must find from the compositions of its final rules alone
        rels = to_algebra_relations(catalog(name))
        res = shirshov_complete(rels, CompletionConfig(max_degree=cap))
        status, basis = reference_complete(rels, cap)
        assert status == res.status
        if status == STATUS_COMPLETE:
            assert basis == _basis_terms(res.basis)

    @pytest.mark.parametrize("field", [0, 1], ids=["Q", "GF32003"])
    def test_algebra_sets(self, field):
        compared = 0
        for rels in _algebra_benchmark_sets()[field::2]:
            res = shirshov_complete(rels, CompletionConfig(max_degree=8))
            if res.status == STATUS_COMPLETE:
                assert reference_complete(rels, 8) == (STATUS_COMPLETE, _basis_terms(res.basis))
                compared += 1
        assert compared == 11
