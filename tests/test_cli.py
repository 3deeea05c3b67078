import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from shirshov import NcPolynomial, RuleSet, catalog, cli, complete_presentation, parse_presentation, to_algebra_relations
from shirshov import words
from shirshov.cli import run
from shirshov.complete import Composition
from shirshov.present import CATALOG_NAMES

from test_present import PARSE_ERRORS

SRC = str(Path(__file__).resolve().parent.parent / "src")
RUNAWAY_SRC = "kind: algebra\ngenerators: y x\nrelations:\n  x*x - x*y\n"
# not a GS basis: its one composition, w = zyx, leaves the residue z*z - x*x
NG_SRC = "kind: algebra\ngenerators: x y z\nrelations:\n  z*y - x\n  y*x - z\n"
# x = 1 and x = 0: the quotient is zero, so every word is the zero class
UNIT_IDEAL_SRC = "kind: algebra\ngenerators: x y\nrelations:\n  x - 1\n  x\n"
# the symmetric group of order 6: a group file, with its inverse relations
S3_SRC = "kind: group\ngenerators: a b\nrelations:\n  a a = 1\n  b b b = 1\n  a b a b = 1\n"
# leads with coefficients -2 and 6: rules made monic from a negative lead with content 2
NON_MONIC_SRC = "kind: algebra\ngenerators: x y\nrelations:\n  -2*y*x + 4*x*y - 6\n  6*y*y - 4*x\n"
# arguments after the file, for each subcommand that needs a certified basis
QUERY_ARGS = {"nf": ["x y"], "eq": ["x", "y"], "irr": ["--deg", "3"], "growth": ["--len", "3"]}


@pytest.fixture
def write(tmp_path):
    def _write(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return _write


@pytest.fixture
def catalog_file(write):
    def _file(name):
        return write(name + ".gs", catalog(name).source())

    return _file


class TestEq:
    def test_bicyclic_equal(self, capsys, catalog_file):
        code = run(["eq", catalog_file("bicyclic"), "p q p", "p"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "equal"

    def test_not_equal_is_mathematical_negative(self, capsys, catalog_file):
        code = run(["eq", catalog_file("bicyclic"), "q p", "1"])
        assert code == 1
        assert capsys.readouterr().out.strip() == "not equal"


class TestNf:
    def test_plactic(self, capsys, catalog_file):
        code = run(["nf", catalog_file("plactic-2"), "b b a a"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "baba"

    def test_many_words_one_completion(self, capsys, monkeypatch, catalog_file):
        calls = []

        def counting(*args):
            calls.append(args)
            return complete_presentation(*args)

        monkeypatch.setattr(cli, "complete_presentation", counting)
        code = run(["nf", catalog_file("bicyclic"), "p q p", "q p", "1", "p p q q q"])
        assert code == 0
        assert capsys.readouterr().out == "p\nqp\n1\nq\n"
        assert len(calls) == 1

    def test_unknown_generator_in_any_word_prints_nothing(self, capsys, catalog_file):
        assert run(["nf", catalog_file("bicyclic"), "p q", "q", "p x"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unknown generator 'x'" in captured.err

    def test_words_required(self, catalog_file):
        assert run(["nf", catalog_file("bicyclic")]) == 2


class TestCheck:
    def test_sl2_yes(self, capsys, catalog_file):
        code = run(["check", catalog_file("sl2")])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("GS basis: yes")
        assert "3 rules" in out

    def test_negative_verdict(self, capsys, write):
        src = (
            "kind: lie\n"
            "generators: x y z\n"
            "relations:\n"
            "  bracket y x = -1*x\n"
            "  bracket z y = -1*y\n"
            "  bracket z x = 0\n"
        )
        code = run(["check", write("nj.gs", src)])
        assert code == 1
        assert "GS basis: no" in capsys.readouterr().out

    def test_unit_ideal_yes(self, capsys, write):
        src = "kind: algebra\ngenerators: x y\nrelations:\n  1\n"
        assert run(["complete", write("one.gs", src)]) == 0
        assert capsys.readouterr().out.startswith("status: unit_ideal")
        code = run(["check", write("one.gs", src)])
        assert code == 0
        assert capsys.readouterr().out.startswith("GS basis: yes")

    @pytest.mark.parametrize("cap", [0, 2])
    def test_capped_check_is_no_verdict(self, capsys, write, cap):
        # the one composition, w = zyx, has degree 3: below that cap nothing
        # is checked, so no answer is a certificate
        path = write("ng.gs", NG_SRC)
        assert run(["check", path, "--max-deg", str(cap)]) == 3
        assert capsys.readouterr().out == (
            "GS basis: unknown (2 rules, 0 compositions checked; "
            f"1 compositions above degree {cap} were not checked)\n"
        )

    def test_cap_reaching_the_failure_is_negative(self, capsys, write):
        path = write("ng.gs", NG_SRC)
        assert run(["check", path, "--max-deg", "3"]) == 1
        assert capsys.readouterr().out == "GS basis: no (1 failing compositions)\n  w = zyx: residue z*z - x*x\n"


    def test_fraction_residues(self, capsys, write):
        src = "kind: algebra\ngenerators: x y\nrelations:\n  2*y*x - x\n  3*y*y - x*x\n"
        assert run(["check", write("frac.gs", src)]) == 1
        assert capsys.readouterr().out == (
            "GS basis: no (2 failing compositions)\n"
            "  w = yyx: residue -1/3*x*x*x + 1/4*x\n"
            "  w = yyy: residue -1/3*x*x*y + 1/6*x*x\n"
        )

    @pytest.mark.parametrize("src, failures", [(catalog("sl2").source(), 0), (NG_SRC, 1)], ids=["yes", "no"])
    def test_only_printed_residues_are_rendered(self, capsys, monkeypatch, write, src, failures):
        # check builds the input relations, then for each failure it prints its
        # w and the two coefficients of z*z - x*x: a residue stays numerators
        # until read, and _coefficient is where a numerator becomes a field
        # element
        built = Counter()
        set_letters, coefficient = words._set_letters, NcPolynomial._coefficient

        def counting_set_letters(w, letters):
            built["Word"] += 1
            set_letters(w, letters)

        def counting_coefficient(f, n):
            built["coefficient"] += 1
            return coefficient(f, n)

        monkeypatch.setattr(words, "_set_letters", counting_set_letters)
        monkeypatch.setattr(NcPolynomial, "_coefficient", counting_coefficient)
        to_algebra_relations(parse_presentation(src))
        inputs = Counter(built)
        assert run(["check", write("in.gs", src)]) == (1 if failures else 0)
        assert built - inputs - inputs == Counter({"Word": failures, "coefficient": 2 * failures})
        assert capsys.readouterr().out.count("residue") == failures


class TestComplete:
    def test_json_output(self, capsys, catalog_file):
        code = run(["complete", catalog_file("sl2"), "--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["format"] == 1
        assert doc["status"] == "complete"
        assert len(doc["basis"]) == 3

    def test_capped_exit_code(self, capsys, write):
        code = run(["complete", write("runaway.gs", RUNAWAY_SRC), "--max-deg", "5"])
        assert code == 3
        assert "capped_degree" in capsys.readouterr().out

    def test_round_trip_reingestion(self, capsys, catalog_file, write):
        # complete --json output re-completes to itself with zero added rules
        for name in ("bicyclic", "plactic-2", "sl2"):
            code = run(["complete", catalog_file(name), "--json"])
            assert code == 0
            doc = json.loads(capsys.readouterr().out)
            gens = " ".join(catalog(name).alphabet.symbols)
            body = "\n".join(f"  {e['poly']}" for e in doc["basis"])
            src = f"kind: algebra\ngenerators: {gens}\nrelations:\n{body}\n"
            code = run(["complete", write(f"re-{name}.gs", src), "--json"])
            assert code == 0
            doc2 = json.loads(capsys.readouterr().out)
            assert doc2["status"] == "complete"
            assert [e["poly"] for e in doc2["basis"]] == [e["poly"] for e in doc["basis"]]
            assert doc2["stats"]["rules_added"] == len(doc["basis"])

    def test_determinism(self, capsys, catalog_file):
        path = catalog_file("plactic-3")
        outs = []
        for _ in range(2):
            code = run(["complete", path, "--max-deg", "7", "--json"])
            assert code == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("name", ["chinese-3", "sl2"])
    def test_plain_output_reads_no_certificate(self, capsys, monkeypatch, catalog_file, name):
        # plain complete prints the status and the basis of complete --json,
        # and builds no composition value to do it
        path = catalog_file(name)
        assert run(["complete", path, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["certificates"]

        def refuse(self):
            raise AssertionError("plain complete read a composition value")

        monkeypatch.setattr(Composition, "value", property(refuse))
        assert run(["complete", path]) == 0
        assert capsys.readouterr().out.splitlines() == [
            f"status: {doc['status']}", *(f"  {e['poly']}" for e in doc["basis"])
        ]


class TestIrr:
    def test_bicyclic_degree_two(self, capsys, catalog_file):
        code = run(["irr", catalog_file("bicyclic"), "--deg", "2"])
        assert code == 0
        lines = capsys.readouterr().out.split()
        assert lines == ["1", "q", "p", "qq", "qp", "pp"]


class TestPbw:
    def test_free_two_letters(self, capsys, write):
        src = "kind: lie\ngenerators: a b\nrelations:\n  bracket b a = 0\n"
        # [b,a] = 0 is abelian, not free; use instead the free case via algebra? no:
        # pbw requires lie kind, so use sl2 for counts and a dedicated free file
        code = run(["pbw", write("ab.gs", src), "--deg", "2"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        # abelian on 2 generators: 1 + 2 + 3 monomials up to degree 2
        assert len(lines) == 6

    def test_sl2_counts(self, capsys, catalog_file):
        code = run(["pbw", catalog_file("sl2"), "--deg", "2"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1 + 3 + 6

    def test_non_lie_kind_is_usage_error(self, capsys, catalog_file):
        code = run(["pbw", catalog_file("bicyclic"), "--deg", "2"])
        assert code == 2


class TestGrowth:
    def test_bicyclic(self, capsys, catalog_file):
        code = run(["growth", catalog_file("bicyclic"), "--len", "3"])
        assert code == 0
        assert capsys.readouterr().out.split() == ["1", "2", "3", "4"]


class TestGroup:
    @pytest.mark.parametrize(
        "argv, out",
        [
            (["growth", "--len", "5"], "1 3 2 0 0 0\n"),
            (["eq", "a b", "b' a"], "equal\n"),
            (["nf", "a' b' a'", "b a b"], "b\na\n"),
        ],
        ids=["growth", "eq", "nf"],
    )
    def test_s3(self, capsys, write, argv, out):
        assert run([argv[0], write("s3.gs", S3_SRC), *argv[1:]]) == 0
        assert capsys.readouterr().out == out


class TestRelationsWithoutArithmetic:
    """Relations reach the rule store with no polynomial arithmetic: a word
    relation is built as one binomial, and RuleSet takes any relation to its
    monic multiple on ints."""

    @pytest.mark.parametrize("name", [*CATALOG_NAMES, "s3", "non-monic"])
    def test_complete_and_check(self, monkeypatch, write, name):
        src = {"s3": S3_SRC, "non-monic": NON_MONIC_SRC}.get(name) or catalog(name).source()
        path = write("in.gs", src)

        def refuse(*args, **kwargs):
            raise AssertionError("polynomial arithmetic on the way to the rule store")

        monic = NcPolynomial.monic

        def monic_in_install(f):
            # the install's own monic, on ints; nothing else makes a relation monic
            if sys._getframe(1).f_code is not RuleSet._install.__code__:
                refuse()
            return monic(f)

        for attr in ("__add__", "__sub__", "__neg__", "__mul__", "scale"):
            monkeypatch.setattr(NcPolynomial, attr, refuse)
        monkeypatch.setattr(NcPolynomial, "monic", monic_in_install)
        assert complete_presentation(parse_presentation(src)).status in ("complete", "capped_degree")
        assert run(["complete", path, "--json"]) in (0, 3)
        assert run(["check", path]) in (0, 1)


class TestUnitIdeal:
    @pytest.mark.parametrize(
        "command, out",
        [("nf", "0"), ("eq", "equal"), ("irr", ""), ("growth", "0 0 0 0")],
        ids=list(QUERY_ARGS),
    )
    def test_every_query_answers(self, capsys, write, command, out):
        assert run([command, write("one.gs", UNIT_IDEAL_SRC), *QUERY_ARGS[command]]) == 0
        assert capsys.readouterr().out.strip() == out


class TestCatalogCommand:
    def test_emits_reingestible_file(self, capsys, write):
        code = run(["catalog", "bicyclic"])
        assert code == 0
        src = capsys.readouterr().out
        path = write("bi.gs", src)
        assert run(["growth", path, "--len", "1"]) == 0

    def test_unknown_name(self, capsys):
        assert run(["catalog", "nope"]) == 2


class TestUsageErrors:
    def test_unknown_subcommand(self):
        assert run(["frobnicate"]) == 2

    def test_missing_file(self):
        assert run(["nf", "/nonexistent/x.gs", "a"]) == 2

    def test_bad_flag(self):
        assert run(["irr", "x.gs", "--frob", "1"]) == 2

    def test_parse_error_in_file(self, write):
        bad = write("bad.gs", "kind: monoid\ngenerators: q p\nrelations:\n  p q =\n")
        assert run(["nf", bad, "p"]) == 2

    @pytest.mark.parametrize(
        "src, line",
        [
            ("kind: algebra\ngenerators: x y\nrelations:\n  x*y - 1/0\n", 4),
            ("kind: lie\ngenerators: x y\nrelations:\n  bracket y x = 1/0*x\n", 4),
        ],
        ids=["algebra", "lie"],
    )
    def test_zero_denominator_is_a_parse_error(self, capsys, write, src, line):
        assert run(["complete", write("z.gs", src)]) == 2
        assert f"line {line}: zero denominator" in capsys.readouterr().err

    @pytest.mark.parametrize("command", QUERY_ARGS)
    def test_capped_where_completeness_required(self, capsys, write, command):
        assert run([command, write("r.gs", RUNAWAY_SRC), *QUERY_ARGS[command]]) == 3
        assert "'capped_degree'" in capsys.readouterr().err


class TestRuleCap:
    def test_capped_rules_exits_3(self, capsys, catalog_file):
        path = catalog_file("chinese-3")
        assert run(["complete", path, "--max-rules", "8"]) == 3
        capsys.readouterr()
        assert run(["complete", path, "--max-rules", "8", "--json"]) == 3
        doc = json.loads(capsys.readouterr().out)
        assert doc["status"] == "capped_rules"
        assert doc["stats"]["compositions_processed"] == 5

    def test_complete_under_the_cap_exits_0(self, capsys, catalog_file):
        assert run(["complete", catalog_file("chinese-3"), "--max-rules", "20", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["status"] == "complete"
        assert doc["stats"]["compositions_processed"] == 16

    def test_generator_named_1_is_usage_error(self, capsys, write):
        # before, this completed as the free monoid on one generator
        src = write("one.gs", "kind: monoid\ngenerators: 1\nrelations:\n  1 = 1\n")
        assert run(["complete", src]) == 2
        assert "line 2: '1' is the empty word" in capsys.readouterr().err


class TestBadInput:
    def test_negative_rule_cap_is_usage_error(self, capsys, catalog_file):
        # a negative cap would stop completion at once with a false capped_rules
        assert run(["complete", catalog_file("chinese-3"), "--max-rules", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "max_rules must be >= 0" in captured.err

    def test_negative_degree_cap_is_usage_error(self, capsys, write):
        # a negative cap would skip every composition, so it checks nothing
        path = write("ng.gs", NG_SRC)
        assert run(["check", path]) == 1
        assert "w = zyx: residue z*z - x*x" in capsys.readouterr().out
        assert run(["check", path, "--max-deg", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "max_degree must be >= 0" in captured.err

    @pytest.mark.parametrize("command", ["complete", "check"])
    def test_zero_relation_is_one_usage_error(self, capsys, write, command):
        # both commands admit relations through the rule set, so both say the same
        path = write("zero.gs", "kind: algebra\ngenerators: x y\nrelations:\n  x*y - x*y\n")
        assert run([command, path]) == 2
        assert capsys.readouterr() == ("", "error: zero polynomial is not a relation\n")

    def test_degree_cap_below_the_inputs_is_usage_error(self, capsys, write):
        assert run(["complete", write("ng.gs", NG_SRC), "--max-deg", "1"]) == 2
        assert capsys.readouterr() == ("", "error: max_degree must cover the input relation degrees\n")

    @pytest.mark.parametrize("command", ["irr", "pbw"])
    def test_negative_degree_bound_is_usage_error(self, capsys, catalog_file, command):
        assert run([command, catalog_file("sl2"), "--deg", "-1"]) == 2
        assert capsys.readouterr() == ("", "error: degree bound must be >= 0\n")

    @pytest.mark.parametrize("src, line, message", PARSE_ERRORS)
    def test_parse_error_names_file_and_line(self, capsys, write, src, line, message):
        path = write("bad.gs", src)
        assert run(["check", path]) == 2
        where = "" if line is None else f"line {line}: "
        assert capsys.readouterr() == ("", f"error: {path}: {where}{message}\n")

    def test_unknown_generator_in_word_is_usage_error(self, capsys, catalog_file):
        # exit 1 would claim the words are "not equal"
        assert run(["eq", catalog_file("bicyclic"), "p", "x"]) == 2
        assert "unknown generator 'x'" in capsys.readouterr().err
        assert run(["nf", catalog_file("bicyclic"), "p x"]) == 2

    @pytest.mark.parametrize("argv", [["nf", "e f"]], ids=["nf"])
    def test_non_binomial_basis_is_usage_error(self, capsys, catalog_file, argv):
        assert run([argv[0], catalog_file("sl2"), *argv[1:]]) == 2
        assert "rule e*f - f*e - h is not binomial" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["sl2", "heisenberg-3"])
    def test_growth_on_non_binomial_basis(self, capsys, catalog_file, name):
        # Irr(S) is a basis of the quotient for any certified basis: growth
        # counts the words irr lists
        path = catalog_file(name)
        assert run(["growth", path, "--len", "4"]) == 0
        counts = capsys.readouterr().out
        assert counts == "1 3 6 10 15\n"
        assert run(["irr", path, "--deg", "4"]) == 0
        listed = capsys.readouterr().out.split()
        assert listed[0] == "1"  # the empty word; every generator is one character
        lengths = [0] + [len(w) for w in listed[1:]]
        assert counts == " ".join(str(lengths.count(n)) for n in range(5)) + "\n"

    @pytest.mark.parametrize("value", ["abc", "0", "-5"])
    def test_bad_step_cap_names_the_variable(self, capsys, monkeypatch, catalog_file, value):
        monkeypatch.setenv("GS_MAX_STEPS", value)
        assert run(["nf", catalog_file("plactic-2"), "b b a a"]) == 2
        assert "GS_MAX_STEPS" in capsys.readouterr().err

    def test_bad_step_cap_without_a_reduction(self, capsys, monkeypatch):
        # catalog reduces nothing, but the variable is still checked up front
        monkeypatch.setenv("GS_MAX_STEPS", "abc")
        assert run(["catalog", "bicyclic"]) == 2
        captured = capsys.readouterr()
        assert "GS_MAX_STEPS" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "src, message",
        [
            ("kind: algebra\ngenerators: x 2\nrelations:\n  x*x - 2\n", "line 2: generator '2' is not a name"),
            ("kind: monoid\ngenerators: a =\nrelations:\n  a = a a\n", "line 2: generator '=' contains '='"),
            (
                "kind: algebra\nkind: monoid\ngenerators: x\nrelations:\n  x*x\n",
                "line 2: duplicate 'kind:' header",
            ),
            (
                "kind: monoid\ngenerators: a b\ngenerators: x y\nrelations:\n  x y = y x\n",
                "line 3: duplicate 'generators:' header",
            ),
        ],
        ids=["number-generator", "equals-generator", "kind-twice", "generators-twice"],
    )
    def test_unspellable_generator_or_repeated_header_is_usage_error(self, capsys, write, src, message):
        # each would otherwise complete, over a basis the file did not mean
        assert run(["complete", write("bad.gs", src)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err


class TestRuntimeFailures:
    def test_step_cap_is_a_cap(self, capsys, monkeypatch, catalog_file):
        monkeypatch.setenv("GS_MAX_STEPS", "1")
        assert run(["complete", catalog_file("plactic-3")]) == 3
        assert capsys.readouterr().err.startswith("error: reduction exceeded 1 steps")

    def test_closed_stdout_exits_cleanly(self, catalog_file):
        # more output than a pipe buffers, so writes fail once the reader leaves
        argv = ["irr", catalog_file("chinese-4"), "--deg", "10"]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
        proc = subprocess.Popen(
            [sys.executable, "-c", "from shirshov.cli import main; main()", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        assert proc.stdout.readline() == b"1\n"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 0
        assert b"Traceback" not in err
