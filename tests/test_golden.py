"""Golden CLI output: exit codes and stdout digests pinned across refactors.

The determinism tests compare two runs of the same code; these compare
against digests recorded from an earlier version of the engine, so a
change to completion order, certificate indices, stats counters or the
`check` report shows up here.  For each case three commands run:
`complete --json`, `check` on the relations as given, and `check` on the
completed basis re-ingested as an algebra presentation.  The `complete`
document is pinned in three parts: a digest of its status and basis, a
digest of its certificates, and its work counters ("stats") as plain
numbers.  So a change of completion strategy shows in the certificates and
counters while the answer stays pinned, and a change of the printed basis
leaves the record of how it was reached pinned.
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
# document without "certificates" and "stats" (its format, status and basis),
# sha256 of "certificates", and "stats" itself; for check on the relations as
# given and check on the completed basis: exit code and sha256 of stdout
GOLDEN = {
    ("bicyclic", None): (
        (0, "8330fea69e0e4333e234f35ca6eeac879ac0bea9d79f5c55f14c2d97b8590fa3",
         "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
         {"compositions_processed": 0, "compositions_skipped": 0, "rules_added": 1, "reduction_steps": 0}),
        (0, "f1fa25a11b8b3b314f6bc8e873eb84c6891f37a514ac4c3f7aff3897c8eb3ee6"),
        (0, "f1fa25a11b8b3b314f6bc8e873eb84c6891f37a514ac4c3f7aff3897c8eb3ee6"),
    ),
    ("plactic-2", None): (
        (0, "ed4a023036918592f1f8b2a44a517dcae950210180cefaea45832215f1087451",
         "2fdbd47416be426bbd0f248073de829ea129f8ae1232076240f3146abc1e638b",
         {"compositions_processed": 1, "compositions_skipped": 0, "rules_added": 2, "reduction_steps": 0}),
        (0, "06ecf0d0d9258ffb3835fabad00bdd8d2b6410530cbebf0f89819ef36967d79b"),
        (0, "06ecf0d0d9258ffb3835fabad00bdd8d2b6410530cbebf0f89819ef36967d79b"),
    ),
    ("plactic-3", None): (
        (3, "f90534f4a35b90b2c86b23151b9bdff00b696dc0e26a73b749fc596829006db9",
         "1d10195ef01ac85b7333258007c465b510e80027a361c89c52c1b36e926be972",
         {"compositions_processed": 26, "compositions_skipped": 1, "rules_added": 11, "reduction_steps": 74}),
        (1, "2b5ef5a417641359dc877d86ef0681f26e3ef34984d159aa9b67c957ebed082f"),
        (3, "0b6877f375036a17f547ec43cda3acedb1f3501be77e6399f02ee8874a613c1b"),
    ),
    ("plactic-4", None): (
        (3, "b31d8497ec9c0b0c618753d3a4b4f03bd963906e10b024f59131979fdf9d7372",
         "b93cb7225495efc48ff6f1b4875648fd73bc086686058057503c2e80350004b9",
         {"compositions_processed": 176, "compositions_skipped": 120, "rules_added": 41, "reduction_steps": 585}),
        (1, "fa339381a1c0270b0a488def334e7f6541226b6fc7d63e47cf3a6c3fdf6de826"),
        (3, "53aa3ebdc9c001da9f3bb7d3ea0ba2d37df74f30993ebba0f99676b3eecccea1"),
    ),
    ("chinese-2", None): (
        (0, "ed4a023036918592f1f8b2a44a517dcae950210180cefaea45832215f1087451",
         "2fdbd47416be426bbd0f248073de829ea129f8ae1232076240f3146abc1e638b",
         {"compositions_processed": 1, "compositions_skipped": 0, "rules_added": 2, "reduction_steps": 0}),
        (0, "06ecf0d0d9258ffb3835fabad00bdd8d2b6410530cbebf0f89819ef36967d79b"),
        (0, "06ecf0d0d9258ffb3835fabad00bdd8d2b6410530cbebf0f89819ef36967d79b"),
    ),
    ("chinese-3", None): (
        (0, "9468b4fdaeb6be2c439353e3b88332591708eb6448118d70af3be2b89ba36c79",
         "62e96ad5c8243df5c1b58291eef883169a11090cbc6811f91add115e7034bd97",
         {"compositions_processed": 16, "compositions_skipped": 0, "rules_added": 9, "reduction_steps": 41}),
        (1, "af04d71b3e611b28ef7cd060457e49a0d7c345e94f248ba457e067b24ef72c8f"),
        (0, "a71728ac99d8534a582a702172ab79bb193049feacb0f28029ade2aee7446c8d"),
    ),
    ("chinese-4", None): (
        (0, "353184b160dbcf520b6ded6428b9ea52a70c4ea5d5250c3279a20ab9ea9ecfad",
         "a7a4aa2045c08c70ec41ad0cf7eb91f82575d99fce7840d3f7000b55b6ccc162",
         {"compositions_processed": 85, "compositions_skipped": 0, "rules_added": 24, "reduction_steps": 330}),
        (1, "7bee23648172b537a86a070595dc233b5f5178982a8782afd3da194e75192db6"),
        (0, "b0ed9c5b123d019f9aba40980b34c855a371202f8ef7d5c469ef17300013c178"),
    ),
    ("free-comm-2", None): (
        (0, "915b828904d8337e1303f878da80ec4d6d05b029f8ae4978b9e4792347b5ae78",
         "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
         {"compositions_processed": 0, "compositions_skipped": 0, "rules_added": 1, "reduction_steps": 0}),
        (0, "f1fa25a11b8b3b314f6bc8e873eb84c6891f37a514ac4c3f7aff3897c8eb3ee6"),
        (0, "f1fa25a11b8b3b314f6bc8e873eb84c6891f37a514ac4c3f7aff3897c8eb3ee6"),
    ),
    ("free-comm-3", None): (
        (0, "3f3e6dcf8e8b215b6ed8d1149846ba72014141e5ca5962c995ebda92e663c5ba",
         "4753d5ce4bd398a1899ef7c53e3c9bdeb1cafc9b342becb3b2fcb33fe2696aee",
         {"compositions_processed": 1, "compositions_skipped": 0, "rules_added": 3, "reduction_steps": 4}),
        (0, "a9e06c753d2cb165c46a620ee511fd223fc8c8ac7a5c11fbda9fd49562d40b3b"),
        (0, "a9e06c753d2cb165c46a620ee511fd223fc8c8ac7a5c11fbda9fd49562d40b3b"),
    ),
    ("free-comm-4", None): (
        (0, "ec70ce0b55c671dff4d81adf1f27557e3046e95f3fa021d08fc49454a0403770",
         "e0d1b1fb54fd9a3fbb74ba2b20de1e07c7b2a3864d574c3cb6ee1e8526fd6eee",
         {"compositions_processed": 4, "compositions_skipped": 0, "rules_added": 6, "reduction_steps": 16}),
        (0, "845954364371145f80ed678a2967863ef856441ec603725fb4e6fd4191e95ef5"),
        (0, "845954364371145f80ed678a2967863ef856441ec603725fb4e6fd4191e95ef5"),
    ),
    ("sl2", None): (
        (0, "125c616c0b276f82710150b60818268540f16591b0be2b0b6aefabd1545a95f5",
         "aa9a34a6092c61e10c81c0bab0f1567f21296cc181266c47bc3dcb868d001b7d",
         {"compositions_processed": 1, "compositions_skipped": 0, "rules_added": 3, "reduction_steps": 4}),
        (0, "a9e06c753d2cb165c46a620ee511fd223fc8c8ac7a5c11fbda9fd49562d40b3b"),
        (0, "a9e06c753d2cb165c46a620ee511fd223fc8c8ac7a5c11fbda9fd49562d40b3b"),
    ),
    ("heisenberg-3", None): (
        (0, "692001545e6be17f8cb348c529cbc74b20aead7535abbcdc5cafec190e7eb076",
         "94bda8b482bbedcd6fdf46a1e34f38d914ec810ea1ae273eba421279d767c8bb",
         {"compositions_processed": 1, "compositions_skipped": 0, "rules_added": 3, "reduction_steps": 4}),
        (0, "a9e06c753d2cb165c46a620ee511fd223fc8c8ac7a5c11fbda9fd49562d40b3b"),
        (0, "a9e06c753d2cb165c46a620ee511fd223fc8c8ac7a5c11fbda9fd49562d40b3b"),
    ),
    ("plactic-3", 7): (
        (0, "391f33f224f381988e8fc3d4ab7c3e5dc8378e819a7a9b6eef551caa4764ce3c",
         "1f4400e34b3b9284e2a7ccde9aa053604cf07df8c35a6a7231aa2ec160ff1fc2",
         {"compositions_processed": 27, "compositions_skipped": 0, "rules_added": 11, "reduction_steps": 76}),
        (1, "2b5ef5a417641359dc877d86ef0681f26e3ef34984d159aa9b67c957ebed082f"),
        (0, "5bd1de52d5978ffb7181e86bb8283e1f3a35f0fc4450be981254b30ff7de2f20"),
    ),
    ("chinese-5", 7): (
        (0, "31926d9e6780ab9508b3fe9617071f9ad98564fe72e34c9a92a2b34908952401",
         "83ca5384083370f4dd1f3197ae47b79473b1546dce40f08a6376d22fac39fc86",
         {"compositions_processed": 290, "compositions_skipped": 0, "rules_added": 50, "reduction_steps": 1376}),
        (1, "b47f52fc5e1f2d3e49589d1462222738c9244d837cdd3fcfba4df73c3adc7cc8"),
        (0, "631de7a6f2226595644804ee0a7d5e86eaa7459f2b534000cc8a0c354b7fb4bd"),
    ),
    ("retiring-complete", 5): (
        (0, "d89bbf6a643fa46eca144c1fd737cee800319200b885204b738785ff47a1f223",
         "f231dc9f7e790eea85100a274d9c41c17abee9f1a9c3863c5c826a7cdfb15181",
         {"compositions_processed": 16, "compositions_skipped": 0, "rules_added": 12, "reduction_steps": 82}),
        (1, "8df271240a0c38c4e8d56a3bc91ef23c4cbe69d787b28edcdfc5664fcfb53420"),
        (0, "e1e732b271e4a3bf94bb645f0872424b141648a78dc21c18503a7c9f77bb8848"),
    ),
    ("retiring-capped", 5): (
        (3, "c7e16baac18d8aa73fd8d0b1aeb87304c8377951aff4ab929736901468dee6bc",
         "c62da7d5720e7e8a95edd05810727e032ea1604058c7174333bb5d04387dce15",
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
    certificates, stats = doc.pop("certificates"), doc.pop("stats")
    complete = (code, _sha(json.dumps(doc, indent=2)), _sha(json.dumps(certificates, indent=2)), stats)
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
