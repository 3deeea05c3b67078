"""Golden CLI output: exit codes and stdout digests pinned across refactors.

The determinism tests compare two runs of the same code; these compare
against digests recorded from an earlier version of the engine, so a
change to completion order, certificate indices, stats counters or the
`check` report shows up here.  For each case three commands run:
`complete --json`, `check` on the relations as given, and `check` on the
completed basis re-ingested as an algebra presentation.  The `complete`
document is pinned in two parts: a digest of everything but its work
counters ("stats"), and the counters as plain numbers, so a change that
does less work shows which counter moved while the answer stays pinned.
"""

import hashlib
import json

import pytest

from shirshov import catalog
from shirshov.cli import run
from shirshov.present import CATALOG_NAMES, parse_presentation


def _chinese_source(n: int) -> str:
    letters = [chr(ord("a") + i) for i in range(n)]
    rels = []
    for x in range(n):
        for y in range(x, n):
            for z in range(y, n):
                if x == y == z:
                    continue
                zyx = f"{letters[z]} {letters[y]} {letters[x]}"
                zxy = f"{letters[z]} {letters[x]} {letters[y]}"
                yzx = f"{letters[y]} {letters[z]} {letters[x]}"
                rels += [f"  {zyx} = {other}" for other in (zxy, yzx) if other != zyx]
    gens = " ".join(letters)
    return f"kind: monoid\ngenerators: {gens}\nrelations:\n" + "\n".join(rels) + "\n"


# Inputs outside the catalog: rank-5 Chinese (the catalog stops at 4), and
# two algebra inputs whose completion retires rules by interreduction, so a
# retired rule that still matched would change the reductions.
EXTRA_SOURCES = {
    "chinese-5": _chinese_source(5),
    "retiring-complete": (
        "kind: algebra\ngenerators: x y z\nrelations:\n"
        "  3*x*y + x + 2\n  -y*z*x + z - 2*y\n  -x*x*x - 2*x - 1\n"
    ),
    "retiring-capped": (
        "kind: algebra\ngenerators: x y z\nrelations:\n"
        "  -2*z*z*x - x*z + y\n  -2*z*z*z + 3*x + 3\n  2*y*z*x + 3*x - 1\n"
    ),
}


def _source(name: str) -> str:
    if name in EXTRA_SOURCES:
        return EXTRA_SOURCES[name]
    return catalog(name).source()


# (name, --max-deg or None) -> for complete --json: exit code, sha256 of the
# document without "stats", and "stats" itself; for check on the relations as
# given and check on the completed basis: exit code and sha256 of stdout
GOLDEN = {
    ("bicyclic", None): (
        (0, "940079652bcf3ac38fde24ab2dac070cb88093c34fee6422dbcc9dd863dbaf23",
         {"compositions_processed": 0, "compositions_skipped": 0, "rules_added": 1, "reduction_steps": 0}),
        (0, "f1fa25a11b8b3b314f6bc8e873eb84c6891f37a514ac4c3f7aff3897c8eb3ee6"),
        (0, "f1fa25a11b8b3b314f6bc8e873eb84c6891f37a514ac4c3f7aff3897c8eb3ee6"),
    ),
    ("plactic-2", None): (
        (0, "baf0da9fe008fcdd8e05fd2bcc1495ae2dc4a601a78e49135ac6342edbb41090",
         {"compositions_processed": 1, "compositions_skipped": 0, "rules_added": 2, "reduction_steps": 0}),
        (0, "06ecf0d0d9258ffb3835fabad00bdd8d2b6410530cbebf0f89819ef36967d79b"),
        (0, "06ecf0d0d9258ffb3835fabad00bdd8d2b6410530cbebf0f89819ef36967d79b"),
    ),
    ("plactic-3", None): (
        (3, "291f87df7d400d938c3610ffab0ff4530ce09e254a0cddcf661e412606f80807",
         {"compositions_processed": 26, "compositions_skipped": 1, "rules_added": 11, "reduction_steps": 74}),
        (1, "2b5ef5a417641359dc877d86ef0681f26e3ef34984d159aa9b67c957ebed082f"),
        (3, "0b6877f375036a17f547ec43cda3acedb1f3501be77e6399f02ee8874a613c1b"),
    ),
    ("plactic-4", None): (
        (3, "f35a2cbaadf354329d8486e48e932760ac975f8c122fd5a081bc9924d452b820",
         {"compositions_processed": 176, "compositions_skipped": 120, "rules_added": 41, "reduction_steps": 585}),
        (1, "fa339381a1c0270b0a488def334e7f6541226b6fc7d63e47cf3a6c3fdf6de826"),
        (3, "53aa3ebdc9c001da9f3bb7d3ea0ba2d37df74f30993ebba0f99676b3eecccea1"),
    ),
    ("chinese-2", None): (
        (0, "baf0da9fe008fcdd8e05fd2bcc1495ae2dc4a601a78e49135ac6342edbb41090",
         {"compositions_processed": 1, "compositions_skipped": 0, "rules_added": 2, "reduction_steps": 0}),
        (0, "06ecf0d0d9258ffb3835fabad00bdd8d2b6410530cbebf0f89819ef36967d79b"),
        (0, "06ecf0d0d9258ffb3835fabad00bdd8d2b6410530cbebf0f89819ef36967d79b"),
    ),
    ("chinese-3", None): (
        (0, "3e3a83d2c49e8f8bac54879958b3cba7f7272e97102f1d4dee14d7324f532596",
         {"compositions_processed": 16, "compositions_skipped": 0, "rules_added": 9, "reduction_steps": 41}),
        (1, "af04d71b3e611b28ef7cd060457e49a0d7c345e94f248ba457e067b24ef72c8f"),
        (0, "a71728ac99d8534a582a702172ab79bb193049feacb0f28029ade2aee7446c8d"),
    ),
    ("chinese-4", None): (
        (0, "ca3570a05aa8570aac44fac605c84ffae43e32622b54a1ae802de53079c9d8a4",
         {"compositions_processed": 85, "compositions_skipped": 0, "rules_added": 24, "reduction_steps": 330}),
        (1, "7bee23648172b537a86a070595dc233b5f5178982a8782afd3da194e75192db6"),
        (0, "b0ed9c5b123d019f9aba40980b34c855a371202f8ef7d5c469ef17300013c178"),
    ),
    ("free-comm-2", None): (
        (0, "c27b0d7069d332701f2852c46383e9031d1e0561d13961816849eae9eaf3bdea",
         {"compositions_processed": 0, "compositions_skipped": 0, "rules_added": 1, "reduction_steps": 0}),
        (0, "f1fa25a11b8b3b314f6bc8e873eb84c6891f37a514ac4c3f7aff3897c8eb3ee6"),
        (0, "f1fa25a11b8b3b314f6bc8e873eb84c6891f37a514ac4c3f7aff3897c8eb3ee6"),
    ),
    ("free-comm-3", None): (
        (0, "84401ce35d9f12a304e20390235cc82da5c4b2ac46e02ba1ca212d2237893eb3",
         {"compositions_processed": 1, "compositions_skipped": 0, "rules_added": 3, "reduction_steps": 4}),
        (0, "a9e06c753d2cb165c46a620ee511fd223fc8c8ac7a5c11fbda9fd49562d40b3b"),
        (0, "a9e06c753d2cb165c46a620ee511fd223fc8c8ac7a5c11fbda9fd49562d40b3b"),
    ),
    ("free-comm-4", None): (
        (0, "3b1f718dd41a3a61b45e88da48f46fac24e33c5667b9c0410da483bbe4051766",
         {"compositions_processed": 4, "compositions_skipped": 0, "rules_added": 6, "reduction_steps": 16}),
        (0, "845954364371145f80ed678a2967863ef856441ec603725fb4e6fd4191e95ef5"),
        (0, "845954364371145f80ed678a2967863ef856441ec603725fb4e6fd4191e95ef5"),
    ),
    ("sl2", None): (
        (0, "4e863aa15088d83b28b57bc166e9a6371b630c78b8cf2bce48dc3ccf6d9fc679",
         {"compositions_processed": 1, "compositions_skipped": 0, "rules_added": 3, "reduction_steps": 4}),
        (0, "a9e06c753d2cb165c46a620ee511fd223fc8c8ac7a5c11fbda9fd49562d40b3b"),
        (0, "a9e06c753d2cb165c46a620ee511fd223fc8c8ac7a5c11fbda9fd49562d40b3b"),
    ),
    ("heisenberg-3", None): (
        (0, "a291212182387c25a4365a84aa544012ebe72b09f682d855971719e9458efb78",
         {"compositions_processed": 1, "compositions_skipped": 0, "rules_added": 3, "reduction_steps": 4}),
        (0, "a9e06c753d2cb165c46a620ee511fd223fc8c8ac7a5c11fbda9fd49562d40b3b"),
        (0, "a9e06c753d2cb165c46a620ee511fd223fc8c8ac7a5c11fbda9fd49562d40b3b"),
    ),
    ("plactic-3", 7): (
        (0, "4955df32978a23b089addad192a2c81807ce74a4d967c9ca3405ea9cba48e7d6",
         {"compositions_processed": 27, "compositions_skipped": 0, "rules_added": 11, "reduction_steps": 76}),
        (1, "2b5ef5a417641359dc877d86ef0681f26e3ef34984d159aa9b67c957ebed082f"),
        (0, "5bd1de52d5978ffb7181e86bb8283e1f3a35f0fc4450be981254b30ff7de2f20"),
    ),
    ("chinese-5", 7): (
        (0, "2b7823c2696da82e483ae991e562394974c9caea90ebc14d17fe28d3caa8050a",
         {"compositions_processed": 290, "compositions_skipped": 0, "rules_added": 50, "reduction_steps": 1376}),
        (1, "b47f52fc5e1f2d3e49589d1462222738c9244d837cdd3fcfba4df73c3adc7cc8"),
        (0, "631de7a6f2226595644804ee0a7d5e86eaa7459f2b534000cc8a0c354b7fb4bd"),
    ),
    ("retiring-complete", 5): (
        (0, "c6e829db36c866a72a3551f15119e9b837fc2d34d9000132e7df534686d6cceb",
         {"compositions_processed": 16, "compositions_skipped": 0, "rules_added": 12, "reduction_steps": 82}),
        (1, "8df271240a0c38c4e8d56a3bc91ef23c4cbe69d787b28edcdfc5664fcfb53420"),
        (0, "e1e732b271e4a3bf94bb645f0872424b141648a78dc21c18503a7c9f77bb8848"),
    ),
    ("retiring-capped", 5): (
        (3, "093b70f8f1bc90bff9d4807d5700fcf6f2b06a958ae1a810ceba6a7d3bc0853c",
         {"compositions_processed": 41, "compositions_skipped": 5, "rules_added": 21, "reduction_steps": 379}),
        (1, "d62254668debe85b8aa7582c8c4bd8bcc25477c6430d8cf569cfdc0257e6d9fb"),
        (3, "c6e8c631cb4de6d5d86a7b88d9d377769f080edd41bb487dad96f5c83bf1e7b6"),
    ),

}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _run(capsys, argv):
    code = run(argv)
    return code, _sha(capsys.readouterr().out)


def observe(capsys, tmp_path, name, max_deg):
    path = tmp_path / f"{name}.gs"
    path.write_text(_source(name))
    cap = [] if max_deg is None else ["--max-deg", str(max_deg)]
    code = run(["complete", str(path), "--json", *cap])
    doc = json.loads(capsys.readouterr().out)
    stats = doc.pop("stats")
    complete = (code, _sha(json.dumps(doc, indent=2)), stats)
    given = _run(capsys, ["check", str(path), *cap])
    gens = " ".join(parse_presentation(_source(name)).alphabet.symbols)
    body = "\n".join(f"  {e['poly']}" for e in doc["basis"])
    basis_path = tmp_path / f"{name}-basis.gs"
    basis_path.write_text(f"kind: algebra\ngenerators: {gens}\nrelations:\n{body}\n")
    eff_cap = max_deg if max_deg is not None else 6
    completed = _run(capsys, ["check", str(basis_path), "--max-deg", str(eff_cap)])
    return complete, given, completed


CASES = [(name, None) for name in CATALOG_NAMES] + [
    ("plactic-3", 7),
    ("chinese-5", 7),
    ("retiring-complete", 5),
    ("retiring-capped", 5),
]


@pytest.mark.parametrize("name,max_deg", CASES, ids=[f"{n}@{d or 'default'}" for n, d in CASES])
def test_golden_cli_output(capsys, tmp_path, name, max_deg):
    assert observe(capsys, tmp_path, name, max_deg) == GOLDEN[(name, max_deg)]
