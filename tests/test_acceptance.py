"""End-to-end acceptance suite.

Each test covers one acceptance criterion and prints a single pass/fail
line (visible under ``pytest -v`` thanks to captured-output reporting, or
directly with ``pytest -s``).
"""

import contextlib
import io
import random
from collections import Counter
from fractions import Fraction

from shirshov import (
    Alphabet,
    catalog,
    compositions,
    expand_bracket,
    growth_series,
    irr_words,
    is_alsw,
    lie_gs_check,
    lsw_bracket,
    normal_form_word,
    parse_poly,
    pbw_basis,
    reduce,
    shirshov_factorize,
)
from shirshov.cli import run
from shirshov.present import ZERO

from oracles import (
    all_monotone_alsw_factorizations,
    all_words,
    alsw_census,
    binomial,
    congruence_classes,
    jacobiator_vanishes,
    necklace_count,
    random_ideal_element,
    rotation_maximal,
)
from test_lie import NON_JACOBI_TABLE, lie_relations
from test_present import completed


@contextlib.contextmanager
def criterion(n, label):
    try:
        yield
    except Exception:
        print(f"criterion {n:2d} ({label}): FAIL")
        raise
    print(f"criterion {n:2d} ({label}): pass")


CATALOG_BASES = (
    "bicyclic",
    "free-comm-2",
    "free-comm-3",
    "sl2",
    "heisenberg-3",
    "plactic-2",
    "plactic-3",
    "chinese-2",
    "chinese-3",
)


def test_01_cd_lemma_random_ideal_elements():
    with criterion(1, "CD-lemma property suite"):
        rng = random.Random(20260826)
        for name in CATALOG_BASES:
            p, res = completed(name)
            assert res.status == "complete", name
            basis = res.basis
            for _ in range(200):
                f = random_ideal_element(rng, basis, p.alphabet, 6, 3)
                assert reduce(f, basis).is_zero(), name
                if not f.is_zero():
                    lead, _ = f.leading()
                    assert basis.leftmost_match(lead.letters) is not None, name


def test_02_pbw_free_lie_counts():
    with criterion(2, "PBW counts for free Lie algebras"):
        for k, dmax in ((2, 8), (3, 6)):
            alphabet = Alphabet(tuple("abc"[:k]))
            by_deg = Counter(m.degree for m in pbw_basis(None, dmax, alphabet))
            for d in range(dmax + 1):
                assert by_deg[d] == k ** d, (k, d)


def test_03_shirshov_factorization_uniqueness():
    with criterion(3, "Shirshov factorization uniqueness"):
        for k, dmax in ((2, 10), (3, 7)):
            alphabet = Alphabet(tuple("abc"[:k]))
            for n in range(1, dmax + 1):
                for w in all_words(alphabet, n):
                    facts = all_monotone_alsw_factorizations(w)
                    assert len(facts) == 1, w
                    assert facts[0] == shirshov_factorize(w), w


def test_04_alsw_census():
    with criterion(4, "ALSW census vs necklace formula"):
        for k in (2, 3):
            alphabet = Alphabet(tuple("abc"[:k]))
            for d in range(1, 11):
                brute = sum(
                    1
                    for w in all_words(alphabet, d)
                    if rotation_maximal(w.letters)
                )
                assert alsw_census(k, d) == necklace_count(k, d) == brute, (k, d)
                census_here = sum(1 for w in all_words(alphabet, d) if is_alsw(w))
                assert census_here == brute, (k, d)


def test_05_sl2_pbw():
    with criterion(5, "sl2 completion and PBW dimensions"):
        p, res = completed("sl2")
        assert res.status == "complete"
        assert res.stats["rules_added"] == 3
        assert len(res.basis) == 3

        monomials = pbw_basis(res, 10, p.alphabet)
        for d in range(11):
            count = sum(1 for m in monomials if m.degree <= d)
            assert count == binomial(d + 3, 3), d

        # the single composition, at w = hef, reduces to zero
        seen_hef = False
        S = res.basis
        for i in range(len(S)):
            for j in range(i, len(S)):
                for comp in compositions(S, i, j):
                    if str(comp.w) == "hef":
                        seen_hef = True
                    assert reduce(comp.value, S).is_zero(), comp.w
        assert seen_hef


def test_06_jacobi_detection():
    with criterion(6, "Jacobi-defect detection"):
        rels = lie_relations(("x", "y", "z"), NON_JACOBI_TABLE)
        ok, failures = lie_gs_check(rels)
        assert not ok
        x = parse_poly("x", rels[0].alphabet)
        assert any(rec.residue.monic() == x for rec in failures)

        rng = random.Random(4071)
        gen_names = ("w", "x", "y", "z")
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
            gs_ok, _ = lie_gs_check(lie_relations(gen_names[:n], table))
            assert gs_ok == jacobiator_vanishes(table)


def test_07_commutative_sanity():
    with criterion(7, "free-comm-n completion and Irr counts"):
        for n in (2, 3, 4):
            p, res = completed(f"free-comm-{n}")
            assert res.status == "complete"
            assert res.stats["rules_added"] == binomial(n, 2)
            by_deg = Counter(len(w) for w in irr_words(res.basis, 8, p.alphabet))
            for d in range(9):
                assert by_deg[d] == binomial(n + d - 1, d), (n, d)


def test_08_monoid_oracle_equivalence():
    with criterion(8, "monoid word-problem oracle equivalence"):
        for name in ("plactic-2", "plactic-3", "chinese-2", "chinese-3"):
            p, res = completed(name)
            classes = congruence_classes(p.alphabet, p.relations, 6)
            by_nf: dict = {}
            for n in range(7):
                for w in all_words(p.alphabet, n):
                    key = normal_form_word(w, res)
                    key = key.letters if key is not ZERO else ZERO
                    by_nf.setdefault(key, set()).add(w.letters)
            assert set(map(frozenset, by_nf.values())) == classes, name

        _, res = completed("bicyclic")
        assert growth_series(res, 10).counts == tuple(range(1, 12))


def test_09_triangularity():
    with criterion(9, "standard-bracketing triangularity"):
        alphabet = Alphabet(("a", "b"))
        for n in range(1, 9):
            for u in all_words(alphabet, n):
                if not is_alsw(u):
                    continue
                lead, coeff = expand_bracket(lsw_bracket(u)).leading()
                assert lead == u and coeff == 1, u


def test_10_determinism(tmp_path):
    with criterion(10, "byte-identical completion output"):
        from shirshov.present import CATALOG_NAMES

        for name in CATALOG_NAMES:
            path = tmp_path / f"{name}.gs"
            path.write_text(catalog(name).source())
            outs = []
            for _ in range(2):
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    run(["complete", str(path), "--json"])
                outs.append(buf.getvalue())
            assert outs[0] == outs[1], name
