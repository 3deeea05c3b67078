import operator
import random
from collections import Counter
from fractions import Fraction

import pytest

from shirshov import (
    Alphabet,
    LieTerm,
    NcPolynomial,
    Word,
    expand_bracket,
    mul_bounded,
    parse_poly,
    render_poly,
    prime_field,
)
from shirshov.ncpoly import PolyParseError, ZeroPolynomialError
from shirshov.words import AlphabetMismatchError, deglex_key

from oracles import DictPoly

AB = Alphabet(("x", "y"))
FEH = Alphabet(("e", "f", "h"))
BA = Alphabet(("a", "b"))


def P(text, alphabet=AB):
    return parse_poly(text, alphabet)


def random_poly(rng, alphabet, max_deg=4, max_terms=4):
    terms = {}
    for _ in range(rng.randrange(max_terms + 1)):
        n = rng.randrange(max_deg + 1)
        word = Word(alphabet, tuple(rng.randrange(len(alphabet)) for _ in range(n)))
        terms[word] = Fraction(rng.randint(-4, 4))
    return NcPolynomial(alphabet, terms)


def random_lieterm(rng, alphabet, depth=3):
    if depth == 0 or rng.random() < 0.4:
        return LieTerm.leaf(alphabet, rng.randrange(len(alphabet)))
    return LieTerm.bracket(
        random_lieterm(rng, alphabet, depth - 1), random_lieterm(rng, alphabet, depth - 1)
    )


class TestLeading:
    def test_sl2_relation(self):
        f = P("h*e - e*h - 2*e", FEH)
        word, c = f.leading()
        assert str(word) == "he" and c == 1

    def test_degree_dominates(self):
        f = P("3*x - 2", AB)
        word, c = f.leading()
        assert str(word) == "x" and c == 3

    def test_zero_errors(self):
        with pytest.raises(ZeroPolynomialError):
            NcPolynomial.zero(AB).leading()


class TestMonic:
    def test_scales_by_leading_coefficient(self):
        f = P("2*x*y - 4*y*x", AB)
        assert f.monic() == P("y*x - 1/2*x*y", AB)

    def test_idempotent(self):
        f = P("y*x - 1/2*x*y", AB)
        assert f.monic() == f

    def test_single_generator(self):
        assert P("x", AB).monic() == P("x", AB)


class TestMulBounded:
    def test_identity_frames(self):
        f = P("e*f - f*e - h", FEH)
        eps = FEH.empty()
        assert mul_bounded(eps, f, eps) == f

    def test_left_concatenation(self):
        f = P("e*f - f*e - h", FEH)
        out = mul_bounded(FEH.word("h"), f, FEH.empty())
        assert out == P("h*e*f - h*f*e - h*h", FEH)

    def test_zero(self):
        out = mul_bounded(AB.word("x"), NcPolynomial.zero(AB), AB.word("y"))
        assert out.is_zero()

    def test_leading_transfer(self):
        rng = random.Random(5)
        for _ in range(300):
            f = random_poly(rng, AB)
            if f.is_zero():
                continue
            a = Word(AB, tuple(rng.randrange(2) for _ in range(rng.randrange(3))))
            b = Word(AB, tuple(rng.randrange(2) for _ in range(rng.randrange(3))))
            lead, _ = mul_bounded(a, f, b).leading()
            assert lead == a * f.leading()[0] * b


class TestRingAxioms:
    def test_associativity_distributivity(self):
        rng = random.Random(17)
        for _ in range(1_000):
            f = random_poly(rng, AB, max_deg=3)
            g = random_poly(rng, AB, max_deg=3)
            h = random_poly(rng, AB, max_deg=3)
            assert (f * g) * h == f * (g * h)
            assert f * (g + h) == f * g + f * h
            assert (f + g) * h == f * h + g * h

    def test_additive_inverse(self):
        rng = random.Random(18)
        for _ in range(200):
            f = random_poly(rng, AB)
            assert (f + (-f)).is_zero()


class TestExpandBracket:
    def test_definition(self):
        t = LieTerm.bracket(LieTerm.leaf(AB, 0), LieTerm.leaf(AB, 1))
        assert expand_bracket(t) == P("x*y - y*x", AB)

    def test_two_step_hand_oracle(self):
        # [[b,a],a]: (ba-ab)a - a(ba-ab) = baa - 2aba + aab
        b, a = LieTerm.leaf(BA, 1), LieTerm.leaf(BA, 0)
        t = LieTerm.bracket(LieTerm.bracket(b, a), a)
        assert expand_bracket(t) == P("b*a*a - 2*a*b*a + a*a*b", BA)

    def test_self_bracket_vanishes(self):
        x = LieTerm.leaf(AB, 0)
        assert expand_bracket(LieTerm.bracket(x, x)).is_zero()

    def test_antisymmetry_random(self):
        rng = random.Random(23)
        for _ in range(200):
            u = random_lieterm(rng, AB)
            v = random_lieterm(rng, AB)
            lhs = expand_bracket(LieTerm.bracket(u, v))
            rhs = expand_bracket(LieTerm.bracket(v, u))
            assert lhs == -rhs

    def test_jacobi_random(self):
        rng = random.Random(29)
        for _ in range(100):
            a = random_lieterm(rng, AB, depth=2)
            b = random_lieterm(rng, AB, depth=2)
            c = random_lieterm(rng, AB, depth=2)
            combo = {
                LieTerm.bracket(LieTerm.bracket(a, b), c): 1,
            }
            total = expand_bracket(combo)
            total = total + expand_bracket(LieTerm.bracket(LieTerm.bracket(b, c), a))
            total = total + expand_bracket(LieTerm.bracket(LieTerm.bracket(c, a), b))
            assert total.is_zero()

    def test_linear_combination(self):
        t1 = LieTerm.bracket(LieTerm.leaf(AB, 0), LieTerm.leaf(AB, 1))
        t2 = LieTerm.leaf(AB, 0)
        out = expand_bracket({t1: Fraction(2), t2: Fraction(-1)})
        assert out == P("2*x*y - 2*y*x - x", AB)


    def test_rejections(self):
        with pytest.raises(ValueError, match="generator index out of range"):
            LieTerm.leaf(AB, 2)
        with pytest.raises(ValueError, match="generator index out of range"):
            LieTerm.leaf(AB, -1)
        x, a = LieTerm.leaf(AB, 0), LieTerm.leaf(BA, 0)
        with pytest.raises(AlphabetMismatchError, match="bracket over different alphabets"):
            LieTerm.bracket(x, a)
        with pytest.raises(ValueError, match="cannot expand an empty combination"):
            expand_bracket({})
        with pytest.raises(AlphabetMismatchError, match="bracket terms over different alphabets"):
            expand_bracket({x: 1, a: 1})

    def test_over_a_prime_field(self):
        GF7 = prime_field(7)
        e, f, h = (LieTerm.leaf(FEH, i) for i in range(3))
        t = LieTerm.bracket(LieTerm.bracket(h, e), f)
        got = expand_bracket({t: GF7(2), e: GF7(3)})
        want = {w: GF7(2) * c.numerator for w, c in expand_bracket(t).terms.items()}
        assert got.terms == {**want, FEH.word("e"): GF7(3)}
        assert all(type(c) is GF7 for c in got.terms.values())


class TestTextSyntax:
    def test_round_trip_random(self):
        rng = random.Random(31)
        for _ in range(300):
            f = random_poly(rng, AB)
            assert parse_poly(render_poly(f), AB) == f

    def test_scalar_prefix_optional(self):
        assert P("2*x", AB) == P("x", AB) + P("x", AB)

    def test_constant_term(self):
        f = P("x*y - 1", AB)
        assert f.coefficient(AB.empty()) == -1

    def test_rational_coefficients(self):
        f = P("3/2*x", AB)
        assert f.leading()[1] == Fraction(3, 2)

    def test_rejects_garbage(self):
        with pytest.raises(PolyParseError):
            P("x +", AB)
        with pytest.raises(PolyParseError):
            P("* x", AB)
        for text in ("x*", "x*+y", "2*", "x*y*"):
            with pytest.raises(PolyParseError, match="dangling '\\*'"):
                P(text, AB)
        for text in ("-", "+", " - "):
            with pytest.raises(PolyParseError, match="dangling sign"):
                P(text, AB)
        with pytest.raises(KeyError):
            P("q", AB)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("x $ y", "unexpected character at ' $ y'"),
            ("", "empty polynomial"),
            ("x y", "missing '+', '-' or '*' before 'y'"),
            ("x + + y", "empty term"),
        ],
    )
    def test_rejection_messages(self, text, message):
        with pytest.raises(PolyParseError) as exc:
            P(text, AB)
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "field, text",
        [(Fraction, "x*y - 1/0"), (prime_field(32003), "x*y - 1/0"), (prime_field(7), "x - 1/14")],
        ids=["Q", "GF32003", "GF7-multiple-of-p"],
    )
    def test_zero_denominator_is_a_parse_error(self, field, text):
        # a ZeroDivisionError would escape the CLI's usage-error handling
        with pytest.raises(PolyParseError, match="zero denominator"):
            parse_poly(text, AB, field=field)

    def test_float_coefficients_forbidden(self):
        with pytest.raises(TypeError):
            NcPolynomial(AB, {AB.word("x"): 0.5})


class TestPrimeField:
    def test_arithmetic(self):
        F7 = prime_field(7)
        a = F7(3)
        assert a + F7(5) == F7(1)
        assert a * F7(5) == F7(1)
        assert a / F7(5) == a * F7(3)
        assert -a == F7(4)

    def test_rejections(self):
        F5, F7 = prime_field(5), prime_field(7)
        for zero in (F7(0), F7(14), 7):
            with pytest.raises(ZeroDivisionError, match="division by zero in GF"):
                F7(3) / zero
        with pytest.raises(TypeError, match="cannot mix 2 with GF\\(7\\) elements"):
            F7(3) + F5(2)

    def test_rendering(self):
        assert str(parse_poly("2*x*y - y", AB, field=prime_field(7))) == "2*x*y + 6*y"

    def test_polynomials_over_gf(self):
        F5 = prime_field(5)
        f = parse_poly("3*x*y - 2*y*x", AB, field=F5)
        g = f.monic()
        assert g.leading()[1] == F5(1)
        assert (f + f + f + f + f).is_zero()

    @pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul], ids=["+", "-", "*"])
    def test_polynomials_over_different_fields_do_not_mix(self, op):
        GF5, GF7 = prime_field(5), prime_field(7)
        x = AB.word("x")
        gf7 = NcPolynomial.monomial(x, GF7(3))
        for other in (NcPolynomial.one(AB), NcPolynomial.monomial(x, GF5(2))):
            for a, b in ((gf7, other), (other, gf7)):
                with pytest.raises(TypeError, match="cannot mix"):
                    op(a, b)
        # the zero polynomial lies in every field
        assert op(gf7, NcPolynomial.zero(AB)) == (gf7 if op is not operator.mul else NcPolynomial.zero(AB))

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            prime_field(6)


def field_poly(rng, field, max_terms=5):
    """A random polynomial over x y of degree <= 3 with coefficients n/d in field."""
    terms = {}
    for _ in range(rng.randrange(max_terms + 1)):
        w = Word(AB, tuple(rng.randrange(2) for _ in range(rng.randrange(4))))
        terms[w] = field(rng.randint(-6, 6)) / field(rng.randint(1, 6))
    return NcPolynomial(AB, terms)


class TestIntegerForm:
    """A polynomial holds numerators over one denominator in lowest terms.  Its
    terms must read back to it, and +, -, *, scale and monic must agree with
    the dict-of-coefficients oracle, in the field's arithmetic."""

    @pytest.mark.parametrize("field", [Fraction, prime_field(32003)], ids=["Q", "GF32003"])
    def test_agrees_with_the_dict_oracle(self, field):
        rng = random.Random(7211)
        seen = Counter()
        for _ in range(400):
            f, g = field_poly(rng, field), field_poly(rng, field)
            if rng.random() < 0.2:
                g = g - f  # so that f + g cancels f's terms
            c = field(rng.randint(-6, 6)) / field(rng.randint(1, 6))
            F, G = DictPoly.of(f), DictPoly.of(g)
            cases = [(f, F), (f + g, F + G), (f - g, F - G), (f * g, F * G), (f.scale(c), F.scale(c))]
            if not f.is_zero():
                cases.append((f.monic(), F.monic()))
            for got, want in cases:
                assert {w.letters: x for w, x in got.terms.items()} == want.terms
                assert list(got.terms) == sorted(got.terms, key=deglex_key, reverse=True)
                assert all(type(x) is field for x in got.terms.values())
                assert NcPolynomial(AB, got.terms) == got == want.poly()
                seen["den > 1"] += got.den > 1
            seen["cancelled"] += len((f + g).ints) < len(set(f.ints) | set(g.ints))
            seen["zero scale"] += c == 0
        assert seen["cancelled"] > 50 and seen["zero scale"] > 10, seen
        if field is Fraction:
            assert seen["den > 1"] > 1000, seen
        else:
            assert seen["den > 1"] == 0, seen

    @pytest.mark.parametrize(
        "first, second",
        [(Fraction(1), prime_field(7)(2)), (prime_field(7)(2), 1), (prime_field(5)(1), prime_field(7)(1))],
        ids=["Q-GF7", "GF7-int", "GF5-GF7"],
    )
    def test_mixed_fields_are_refused(self, first, second):
        with pytest.raises(TypeError, match="cannot mix"):
            NcPolynomial(AB, {AB.word("x y"): first, AB.word("x"): second})

    def test_terms_are_read_only(self):
        f = P("x*y - 1/2")
        with pytest.raises(TypeError):
            f.terms[AB.word("x")] = Fraction(1)
        assert f == P("x*y - 1/2")
