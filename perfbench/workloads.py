"""The three workloads: inputs from a seed, one timed round, answer checks.

Every workload runs the same four phases per round, in order:

- ``complete``: completion jobs;
- ``check``: certification of each basis just computed;
- ``nf``: normal forms of seeded words against those bases;
- ``irr``: Irr(S) enumeration (growth series, Irr(S) counts, PBW bases).

A round calls ``op(phase, label, fn, *args)`` for each timed operation; it
returns ``FAILED`` when the call raised.  ``round`` returns the outputs, by
label, and the deterministic completion counters; ``verify`` checks the
outputs of one round.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from io import StringIO

import oracles

FAILED = object()
PRIME = 32003
QUERY_WORDS_SEED = 0

# sha256 of the sorted lead strings ("abc" style, one per line) of the
# chinese-5 and chinese-6 bases at cap 7.  Every relation order must give
# the same lead set, though tails may differ.
CHINESE_LEADS_SHA256 = {
    "chinese-5": "56f0b091abb10d16d613281c1d3adbf2c909ce35a189e88b623b8b526f51e8e9",
    "chinese-6": "4c01c96bdd413cce1b95c4a2157b6a04bce1acf2565757a6e4c57eb0001aa2f6",
}


def letters(n: int) -> list[str]:
    return [chr(ord("a") + i) for i in range(n)]


def chinese_relations(n: int) -> list[tuple[tuple, tuple]]:
    """zyx = zxy = yzx for x <= y <= z, not all equal (Chinese monoid)."""
    rels = []
    for x, y, z in itertools.combinations_with_replacement(range(n), 3):
        if x == y == z:
            continue
        zyx, zxy, yzx = (z, y, x), (z, x, y), (y, z, x)
        rels += [(zyx, other) for other in (zxy, yzx) if other != zyx]
    return rels


def plactic_relations(n: int) -> list[tuple[tuple, tuple]]:
    """Knuth relations: xzy = zxy for x <= y < z; yxz = yzx for x < y <= z."""
    rels = []
    for x, y, z in itertools.product(range(n), repeat=3):
        if x <= y < z:
            rels.append(((x, z, y), (z, x, y)))
        if x < y <= z:
            rels.append(((y, x, z), (y, z, x)))
    return rels


def free_comm_relations(n: int) -> list[tuple[tuple, tuple]]:
    return [((j, i), (i, j)) for j in range(n) for i in range(j)]


def presentation_text(kind: str, gens, rels) -> str:
    def word(w):
        return " ".join(gens[i] for i in w) if w else "1"

    body = "".join(f"  {word(u)} = {word(v)}\n" for u, v in rels)
    return f"kind: {kind}\ngenerators: {' '.join(gens)}\nrelations:\n{body}"


def spread_lengths(n: int, lo: int, hi: int) -> list[int]:
    """n lengths spread evenly in log scale from lo to hi."""
    return [round(lo * (hi / lo) ** (i / (n - 1))) for i in range(n)]


def query_words(bases, sizes: dict, n: int, lo: int, hi: int) -> list[tuple[str, tuple]]:
    """n words, the same for every seed, for the bases in turn.

    Lengths are spread log-evenly from lo to hi.  With letters drawn per
    seed, the median and the slowest normal forms moved by up to 30%
    between seeds, so the words are fixed and the seed varies the
    relation order instead.
    """
    rng = random.Random(QUERY_WORDS_SEED)
    out = []
    for i, length in enumerate(spread_lengths(n, lo, hi)):
        name = bases[i % len(bases)]
        out.append((name, tuple(rng.randrange(sizes[name]) for _ in range(length))))
    return out


def equivalent_word(rng: random.Random, word: tuple, relations, steps: int = 4) -> tuple:
    """Apply random relation substitutions, in either direction, to a word."""
    w = list(word)
    for _ in range(steps):
        for _attempt in range(20):
            u, v = rng.choice(relations)
            if rng.random() < 0.5:
                u, v = v, u
            if not u:
                pos = rng.randrange(len(w) + 1)
                w[pos:pos] = v
                break
            hits = [i for i in range(len(w) - len(u) + 1) if tuple(w[i : i + len(u)]) == u]
            if hits:
                i = rng.choice(hits)
                w[i : i + len(u)] = v
                break
    return tuple(w)


def leads_of(basis) -> list[tuple]:
    return [rule.leading()[0].letters for rule in basis]


def add_completion(counters: Counter, stats: dict, basis_size: int, residues) -> None:
    """Fold one completion's deterministic counters into ``counters``."""
    for key in ("compositions_processed", "compositions_skipped", "rules_added", "reduction_steps"):
        counters[key] += stats[key]
    counters["rules_retired"] += stats["rules_added"] - basis_size
    counters["certificates"] += len(residues)
    counters["adjoined"] += sum(1 for r in residues if r)


def nf_output(nf):
    return "ZERO" if not hasattr(nf, "letters") else nf.letters


class Workload:
    """Base: seeded set-up state shared by the three workloads."""

    name = ""

    def __init__(self, engine, seed: int, workdir):
        self.E = engine
        self.workdir = workdir
        self.rng = random.Random(f"{self.name}:{seed}")
        self.results = {}  # the last round's bases, which ``verify`` reads


# ---------------------------------------------------------------------------


class CompleteMonoid(Workload):
    """CLI completion of Chinese and plactic monoids with seeded relation order."""

    name = "complete-monoid"
    # (name, family, rank, --max-deg, expected exit code, status, basis size)
    JOBS = [
        ("chinese-5", chinese_relations, 5, 7, 0, "complete", 50),
        ("chinese-6", chinese_relations, 6, 7, 0, "complete", 90),
        ("plactic-4", plactic_relations, 4, None, 3, "capped_degree", 41),
    ]
    QUERY_BASES = ("chinese-5", "chinese-6")
    NF_WORDS = 400
    GROWTH = {"chinese-5": 7, "chinese-6": 6}

    def __init__(self, engine, seed, workdir):
        super().__init__(engine, seed, workdir)
        self.files = {}
        self.relations = {}
        self.alphabets = {}
        for name, family, rank, _cap, *_ in self.JOBS:
            rels = family(rank)
            self.rng.shuffle(rels)
            self.relations[name] = rels
            path = workdir / f"{name}.gs"
            path.write_text(presentation_text("monoid", letters(rank), rels))
            self.files[name] = str(path)
            self.alphabets[name] = engine.Alphabet(letters(rank))
        sizes = {name: len(self.alphabets[name]) for name in self.QUERY_BASES}
        self.words = query_words(self.QUERY_BASES, sizes, self.NF_WORDS, 4, 40)

    def cli(self, argv):
        out, err = StringIO(), StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = self.E.cli.run(argv)
        return code, out.getvalue()

    def round(self, op):
        E = self.E
        outputs, counters = {}, Counter()
        bases = {}
        for name, _family, _rank, cap, *_ in self.JOBS:
            argv = ["complete", self.files[name], "--json"]
            if cap is not None:
                argv += ["--max-deg", str(cap)]
            res = op("complete", f"complete:{name}", self.cli, argv)
            if res is FAILED:
                continue
            outputs[f"complete:{name}"] = res
            code, text = res
            if code not in (0, 3):
                continue
            doc = json.loads(text)
            add_completion(
                counters, doc["stats"], len(doc["basis"]),
                [c["residue"] != "0" for c in doc["certificates"]],
            )
            if code == 0 and name in self.QUERY_BASES:
                bases[name] = doc

        results = {}
        for name, doc in bases.items():
            A = self.alphabets[name]
            polys = [E.parse_poly(entry["poly"], A) for entry in doc["basis"]]
            lines = []
            for f in polys:
                (lead, _), (tail, _) = list(f.terms.items())
                lines.append((lead.letters, tail.letters))
            path = self.workdir / f"{name}-basis.gs"
            path.write_text(presentation_text("monoid", list(A.symbols), lines))
            results[name] = E.CompletionResult(E.RuleSet(polys), "complete", [], {})
            res = op("check", f"check:{name}", self.cli, ["check", str(path), "--max-deg", "7"])
            if res is not FAILED:
                outputs[f"check:{name}"] = res

        for i, (name, letters_) in enumerate(self.words):
            if name not in results:
                continue
            word = E.Word(self.alphabets[name], letters_)
            res = op("nf", f"nf:{i}", E.normal_form_word, word, results[name])
            if res is not FAILED:
                outputs[f"nf:{i}"] = nf_output(res)

        for name, length in self.GROWTH.items():
            if name in results:
                res = op("irr", f"growth:{name}", E.growth_series, results[name], length)
                if res is not FAILED:
                    outputs[f"growth:{name}"] = res.counts
        self.results = results
        return outputs, counters

    def verify(self, outputs):
        errors = []
        for name, _family, _rank, _cap, code, status, size in self.JOBS:
            label = f"complete:{name}"
            if label not in outputs:
                continue
            got_code, text = outputs[label]
            got = {"code": got_code}
            want = {"code": code}
            if got_code in (0, 3):
                doc = json.loads(text)
                got.update(status=doc["status"], size=len(doc["basis"]))
                want.update(status=status, size=size)
                sha = CHINESE_LEADS_SHA256.get(name)
                if sha is not None:
                    leads = "\n".join(sorted(e["lead"] for e in doc["basis"]))
                    if hashlib.sha256(leads.encode()).hexdigest() != sha:
                        errors.append((label, "lead set differs from the pinned chinese lead set"))
            errors += [(label, e) for e in oracles.completion_errors(name, got, want)]
        for name in self.QUERY_BASES:
            label = f"check:{name}"
            if label in outputs:
                code, text = outputs[label]
                size = next(j[6] for j in self.JOBS if j[0] == name)
                if code != 0 or not text.startswith(f"GS basis: yes ({size} rules"):
                    errors.append((label, f"check rejected the basis: {code} {text.strip()!r}"))
        results = self.results
        errors += verify_monoid_nf(self.E, self.words, outputs, results, self.relations, self.rng)
        for name, length in self.GROWTH.items():
            label = f"growth:{name}"
            if label in outputs:
                leads = leads_of(results[name].basis)
                k = len(self.alphabets[name])
                errors += [(label, e) for e in oracles.growth_errors(name, outputs[label], leads, k, 5)]
        return errors


def verify_monoid_nf(E, words, outputs, results, relations, rng, max_len: int = 48):
    """Check normal forms; every word up to max_len letters also gets an
    equivalent word, which must reach the same normal form."""
    errors = []
    for i, (name, word) in enumerate(words):
        label = f"nf:{i}"
        if label not in outputs:
            continue
        nf = outputs[label]
        if nf == "ZERO":
            errors.append((label, "monoid word normalised to ZERO"))
            continue
        errs = oracles.irreducible_errors(nf, leads_of(results[name].basis))
        if name.startswith(("chinese", "plactic", "free-comm")):
            errs += oracles.content_errors(word, nf)
        if name.startswith("free-comm"):
            errs += oracles.sorted_errors(word, nf)
        if name == "plactic-3":
            errs += oracles.plactic_errors(word, nf)
        if len(word) <= max_len:
            other = equivalent_word(rng, word, relations[name])
            alphabet = results[name].basis.alphabet
            got = nf_output(E.normal_form_word(E.Word(alphabet, other), results[name]))
            if got != nf:
                errs.append(f"equivalent word {other} has another normal form")
        errors += [(label, e) for e in errs]
    return errors


# ---------------------------------------------------------------------------


ALGEBRA_ALPHABET = "xyz"
ALGEBRA_SETS = 24
ALGEBRA_CATALOG_SEED = 0
_MONOMIALS = [w for d in range(4) for w in itertools.product(range(3), repeat=d)]


def algebra_catalog() -> list[list[list[tuple[tuple, int]]]]:
    """The fixed relation sets: two relations of three terms, degree <= 3.

    Words and coefficients come from two generators seeded with the catalog
    seed; each relation has a word of degree >= 2.  Completion cost over
    random sets spans five orders of magnitude (0.1 ms to over a minute)
    and depends on both the words and the coefficients, so the workload
    seed only orders the relations within each set.
    """
    word_rng = random.Random(ALGEBRA_CATALOG_SEED)
    coeff_rng = random.Random(ALGEBRA_CATALOG_SEED)
    out = []
    for _ in range(ALGEBRA_SETS):
        shape = []
        for _ in range(2):
            while True:
                words = word_rng.sample(_MONOMIALS, 3)
                if max(len(w) for w in words) >= 2:
                    break
            shape.append(words)
        out.append([[(w, coeff_rng.choice((-3, -2, -1, 1, 2, 3))) for w in words] for words in shape])
    return out


def to_mod_p(c) -> int:
    if isinstance(c, Fraction):
        return c.numerator * pow(c.denominator, -1, PRIME) % PRIME
    return c.value


def poly_mod_p(f) -> tuple:
    return tuple((w.letters, to_mod_p(c)) for w, c in f.terms.items())


class CompleteAlgebra(Workload):
    """Library completion of random algebra relations over Q and GF(32003)."""

    name = "complete-algebra"
    MAX_DEGREE = 8
    NF_PER_BASIS = 10
    IRR_DEGREE = 7

    def __init__(self, engine, seed, workdir):
        super().__init__(engine, seed, workdir)
        E = engine
        self.A = E.Alphabet(ALGEBRA_ALPHABET)
        self.fields = {"Q": Fraction, "GF": E.prime_field(PRIME)}
        self.sets = []
        for rels in algebra_catalog():
            self.rng.shuffle(rels)
            self.sets.append(rels)
        self.jobs = []  # (label, relations, field name)
        for i, rels in enumerate(self.sets):
            for fname, field in self.fields.items():
                polys = [
                    E.NcPolynomial(self.A, {E.Word(self.A, w): field(c) for w, c in rel})
                    for rel in rels
                ]
                self.jobs.append((f"{i}:{fname}", polys, fname))
        # like the sets, the monomials are fixed: with random letters the
        # slowest few reductions, and so nf_ms.p95, changed several-fold by seed
        word_rng = random.Random(QUERY_WORDS_SEED)
        lengths = spread_lengths(self.NF_PER_BASIS, 4, 12)
        self.words = {
            i: [tuple(word_rng.randrange(3) for _ in range(n)) for n in lengths]
            for i in range(len(self.sets))
        }

    def round(self, op):
        E = self.E
        outputs, counters = {}, Counter()
        results = {}
        cfg = E.CompletionConfig(max_degree=self.MAX_DEGREE)
        for key, polys, _f in self.jobs:
            R = op("complete", f"complete:{key}", E.shirshov_complete, polys, cfg)
            if R is FAILED:
                continue
            results[key] = R
            outputs[f"complete:{key}"] = (R.status, tuple(poly_mod_p(f) for f in R.basis))
            add_completion(
                counters, R.stats, len(R.basis),
                [not rec.residue.is_zero() for rec in R.certificates],
            )
        for key, R in results.items():
            res = op("check", f"check:{key}", E.is_gs_basis, R.basis, self.MAX_DEGREE)
            if res is not FAILED:
                outputs[f"check:{key}"] = (res[0], len(res[1]))
        for key, polys, fname in self.jobs:
            if key not in results:
                continue
            one = self.fields[fname](1)
            i = int(key.split(":")[0])
            for j, letters_ in enumerate(self.words[i]):
                f = E.NcPolynomial.monomial(E.Word(self.A, letters_), one)
                res = op("nf", f"nf:{key}:{j}", E.reduce, f, results[key].basis)
                if res is not FAILED:
                    outputs[f"nf:{key}:{j}"] = poly_mod_p(res)
        for key, R in results.items():
            res = op("irr", f"irr:{key}", E.irr_words, R.basis, self.IRR_DEGREE, self.A)
            if res is not FAILED:
                per = Counter(len(w) for w in res)
                outputs[f"irr:{key}"] = tuple(per.get(d, 0) for d in range(self.IRR_DEGREE + 1))
        return outputs, counters

    def verify(self, outputs):
        errors = []
        for i in range(len(self.sets)):
            q, gf = f"{i}:Q", f"{i}:GF"
            for key in (q, gf):
                c = outputs.get(f"complete:{key}")
                if c is None:
                    continue
                status, basis = c
                if status not in ("complete", "capped_degree", "unit_ideal"):
                    errors.append((f"complete:{key}", f"unexpected status {status}"))
                chk = outputs.get(f"check:{key}")
                if chk is not None and chk != (True, 0):
                    errors.append((f"check:{key}", f"is_gs_basis rejected the basis: {chk}"))
                leads = [rule[0][0] for rule in basis]
                for j, letters_ in enumerate(self.words[i]):
                    nf = outputs.get(f"nf:{key}:{j}")
                    if nf is not None:
                        errs = [e for w, _ in nf for e in oracles.irreducible_errors(w, leads)]
                        errors += [(f"nf:{key}:{j}", e) for e in errs]
                irr = outputs.get(f"irr:{key}")
                if irr is not None and list(irr[:6]) != oracles.brute_irr_counts(leads, 3, 5):
                    errors.append((f"irr:{key}", "Irr(S) counts disagree with a brute-force count"))
            # the same integer relations over Q and GF(p) give the same basis mod p
            cq, cg = outputs.get(f"complete:{q}"), outputs.get(f"complete:{gf}")
            if cq is not None and cg is not None and cq != cg:
                errors.append((f"complete:{gf}", "basis over GF(p) differs from the basis over Q mod p"))
            for j in range(len(self.words[i])):
                a, b = outputs.get(f"nf:{q}:{j}"), outputs.get(f"nf:{gf}:{j}")
                if a is not None and b is not None and a != b:
                    errors.append((f"nf:{gf}:{j}", "normal form over GF(p) differs from Q mod p"))
        return errors


# ---------------------------------------------------------------------------


LIE_TEXT = {
    "sl2": "kind: lie\ngenerators: f e h\nrelations:\n"
    "  bracket h e = 2*e\n  bracket h f = -2*f\n  bracket e f = h\n",
    "heisenberg-3": "kind: lie\ngenerators: x y z\nrelations:\n"
    "  bracket y x = z\n  bracket z x = 0\n  bracket z y = 0\n",
}
S3_RELATIONS = [((0, 0), ()), ((1, 1, 1), ()), ((0, 1, 0), (1, 1))]


class Queries(Workload):
    """Normal forms, growth series and PBW bases on finished bases."""

    name = "queries"
    # name -> (max_degree or None, expected basis size)
    BASES = {
        "plactic-3": (7, 11),
        "chinese-4": (None, 24),
        "free-comm-4": (None, 6),
        "bicyclic": (None, 1),
        "s3": (None, 8),
        "sl2": (None, 3),
        "heisenberg-3": (None, 3),
    }
    MONOIDS = ("plactic-3", "chinese-4", "free-comm-4", "bicyclic", "s3")
    NF_WORDS = 200
    GROWTH = {"plactic-3": 12, "chinese-4": 9, "free-comm-4": 14, "bicyclic": 60, "s3": 8}
    PBW = {"sl2": 30, "heisenberg-3": 30}
    FREE_LIE = (3, 8)  # rank, degree

    def __init__(self, engine, seed, workdir):
        super().__init__(engine, seed, workdir)
        E = engine
        given = {
            "plactic-3": plactic_relations(3),
            "chinese-4": chinese_relations(4),
            "free-comm-4": free_comm_relations(4),
            "bicyclic": [((1, 0), ())],
            "s3": list(S3_RELATIONS),
        }
        for rels in given.values():
            self.rng.shuffle(rels)
        texts = {
            "plactic-3": presentation_text("monoid", letters(3), given["plactic-3"]),
            "chinese-4": presentation_text("monoid", letters(4), given["chinese-4"]),
            "free-comm-4": presentation_text("monoid", [f"x{i + 1}" for i in range(4)], given["free-comm-4"]),
            "bicyclic": presentation_text("monoid", ["q", "p"], given["bicyclic"]),
            "s3": presentation_text("group", ["a", "b"], given["s3"]),
            **LIE_TEXT,
        }
        # S3 over a b a' b': the relations and the inverse pairs
        self.relations = dict(given, s3=given["s3"] + [((0, 2), ()), ((2, 0), ()), ((1, 3), ()), ((3, 1), ())])
        self.presentations = {}
        for name, text in texts.items():
            path = workdir / f"{name}.gs"
            path.write_text(text)
            self.presentations[name] = E.parse_presentation(path.read_text())
        sizes = {name: len(self.presentations[name].alphabet) for name in self.MONOIDS}
        self.words = query_words(self.MONOIDS, sizes, self.NF_WORDS, 4, 128)

    def round(self, op):
        E = self.E
        outputs, counters = {}, Counter()
        results = {}
        for name, (cap, _size) in self.BASES.items():
            cfg = E.CompletionConfig(max_degree=cap)
            R = op("complete", f"complete:{name}", E.complete_presentation, self.presentations[name], cfg)
            if R is FAILED:
                continue
            results[name] = R
            outputs[f"complete:{name}"] = (R.status, len(R.basis))
            add_completion(
                counters, R.stats, len(R.basis),
                [not rec.residue.is_zero() for rec in R.certificates],
            )
        for name, R in results.items():
            res = op("check", f"check:{name}", E.is_gs_basis, R.basis)
            if res is not FAILED:
                outputs[f"check:{name}"] = (res[0], len(res[1]))
        for i, (name, letters_) in enumerate(self.words):
            if name not in results:
                continue
            word = E.Word(self.presentations[name].alphabet, letters_)
            res = op("nf", f"nf:{i}", E.normal_form_word, word, results[name])
            if res is not FAILED:
                outputs[f"nf:{i}"] = nf_output(res)
        for name, length in self.GROWTH.items():
            if name in results:
                res = op("irr", f"growth:{name}", E.growth_series, results[name], length)
                if res is not FAILED:
                    outputs[f"growth:{name}"] = res.counts
        for name, d in self.PBW.items():
            if name in results:
                res = op("irr", f"pbw:{name}", E.pbw_basis, results[name], d)
                if res is not FAILED:
                    outputs[f"pbw:{name}"] = tuple(str(m) for m in res)
                    outputs[f"pbw-degrees:{name}"] = tuple(m.degree for m in res)
        rank, d = self.FREE_LIE
        res = op("irr", "pbw:free", E.pbw_basis, None, d, E.Alphabet(letters(rank)))
        if res is not FAILED:
            outputs["pbw:free"] = tuple(str(m) for m in res)
            outputs["pbw-degrees:free"] = tuple(m.degree for m in res)
        self.results = results
        return outputs, counters

    def verify(self, outputs):
        errors = []
        for name, (_cap, size) in self.BASES.items():
            label = f"complete:{name}"
            if label in outputs:
                status, got = outputs[label]
                errors += [
                    (label, e)
                    for e in oracles.completion_errors(
                        name, {"status": status, "size": got}, {"status": "complete", "size": size}
                    )
                ]
            chk = outputs.get(f"check:{name}")
            if chk is not None and chk != (True, 0):
                errors.append((f"check:{name}", f"is_gs_basis rejected the basis: {chk}"))
        results = self.results
        errors += verify_monoid_nf(self.E, self.words, outputs, results, self.relations, self.rng)
        for name in self.GROWTH:
            label = f"growth:{name}"
            if label in outputs:
                leads = leads_of(results[name].basis)
                k = len(self.presentations[name].alphabet)
                errors += [(label, e) for e in oracles.growth_errors(name, outputs[label], leads, k, 6)]
        for name, d in list(self.PBW.items()) + [("free", self.FREE_LIE[1])]:
            degrees = outputs.get(f"pbw-degrees:{name}")
            if degrees is not None:
                errs = oracles.pbw_errors(name, list(degrees), d, self.FREE_LIE[0])
                errors += [(f"pbw:{name}", e) for e in errs]
        return errors


WORKLOADS = {w.name: w for w in (CompleteMonoid, CompleteAlgebra, Queries)}
