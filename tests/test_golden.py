"""Golden CLI output: exit codes and stdout digests pinned across refactors.

The determinism tests compare two runs of the same code; these compare
against digests recorded from an earlier version of the engine, so a
change to completion order, certificate indices, stats counters or the
`check` report shows up here.  For each case three commands run:
`complete --json`, `check` on the relations as given, and `check` on the
completed basis re-ingested as an algebra presentation.
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


# (name, --max-deg or None) -> exit codes and sha256 of stdout for
# complete --json, check (relations as given), check (completed basis)
GOLDEN = {
    ("bicyclic", None): (
        (0, "72f6afba4e6e8ff9304f286e68f31188720667fc54a69c4bf3c6a1bf10a26c3d"),
        (0, "f1fa25a11b8b3b314f6bc8e873eb84c6891f37a514ac4c3f7aff3897c8eb3ee6"),
        (0, "f1fa25a11b8b3b314f6bc8e873eb84c6891f37a514ac4c3f7aff3897c8eb3ee6"),
    ),
    ("plactic-2", None): (
        (0, "c3c14ca697cc7e439056afeee66848bd17e659920354d681655dec20b7fe5554"),
        (0, "06ecf0d0d9258ffb3835fabad00bdd8d2b6410530cbebf0f89819ef36967d79b"),
        (0, "06ecf0d0d9258ffb3835fabad00bdd8d2b6410530cbebf0f89819ef36967d79b"),
    ),
    ("plactic-3", None): (
        (3, "e22cabd3f0557524bb1b2a2d6d3172e03da400e281f0097547bfc4393284072e"),
        (1, "2b5ef5a417641359dc877d86ef0681f26e3ef34984d159aa9b67c957ebed082f"),
        (0, "6b941c91ac34e883f971159c55c0241afcfe52a5e5f5105abb7929d52b808f4a"),
    ),
    ("plactic-4", None): (
        (3, "7520561499603368fb4e36db66df443268238696b4ccacff266852cac180f2c1"),
        (1, "fa339381a1c0270b0a488def334e7f6541226b6fc7d63e47cf3a6c3fdf6de826"),
        (0, "beb4697e207bb9d053f70978d1f319f838faaa79ea33d3aa813c11facb9df279"),
    ),
    ("chinese-2", None): (
        (0, "c3c14ca697cc7e439056afeee66848bd17e659920354d681655dec20b7fe5554"),
        (0, "06ecf0d0d9258ffb3835fabad00bdd8d2b6410530cbebf0f89819ef36967d79b"),
        (0, "06ecf0d0d9258ffb3835fabad00bdd8d2b6410530cbebf0f89819ef36967d79b"),
    ),
    ("chinese-3", None): (
        (0, "c175130370c4fc84392b365066dc5752e1334534935136176ed1712eb03fa3df"),
        (1, "af04d71b3e611b28ef7cd060457e49a0d7c345e94f248ba457e067b24ef72c8f"),
        (0, "a71728ac99d8534a582a702172ab79bb193049feacb0f28029ade2aee7446c8d"),
    ),
    ("chinese-4", None): (
        (0, "ea989e377c1455b97e56d1daf7ea61dc6e0028cc06e205da904f244f74751330"),
        (1, "7bee23648172b537a86a070595dc233b5f5178982a8782afd3da194e75192db6"),
        (0, "b0ed9c5b123d019f9aba40980b34c855a371202f8ef7d5c469ef17300013c178"),
    ),
    ("free-comm-2", None): (
        (0, "7ffafc11a66c20548f310ffc33172a14cfdb512611d12eb9ec94c8540a057459"),
        (0, "f1fa25a11b8b3b314f6bc8e873eb84c6891f37a514ac4c3f7aff3897c8eb3ee6"),
        (0, "f1fa25a11b8b3b314f6bc8e873eb84c6891f37a514ac4c3f7aff3897c8eb3ee6"),
    ),
    ("free-comm-3", None): (
        (0, "74741ca4208d012e5fe9a7eacfd462e5d227e9159122a1808fb4a7acbcfdeea9"),
        (0, "a9e06c753d2cb165c46a620ee511fd223fc8c8ac7a5c11fbda9fd49562d40b3b"),
        (0, "a9e06c753d2cb165c46a620ee511fd223fc8c8ac7a5c11fbda9fd49562d40b3b"),
    ),
    ("free-comm-4", None): (
        (0, "dde221bbb3c2dc2cf3e39055e8fdd428afad857f394459949bd3b5f19a8fe64d"),
        (0, "845954364371145f80ed678a2967863ef856441ec603725fb4e6fd4191e95ef5"),
        (0, "845954364371145f80ed678a2967863ef856441ec603725fb4e6fd4191e95ef5"),
    ),
    ("sl2", None): (
        (0, "ece5c4db3373245e4b3bdcbc8b5932c5437cd7926e6866217655e812ed097ebe"),
        (0, "a9e06c753d2cb165c46a620ee511fd223fc8c8ac7a5c11fbda9fd49562d40b3b"),
        (0, "a9e06c753d2cb165c46a620ee511fd223fc8c8ac7a5c11fbda9fd49562d40b3b"),
    ),
    ("heisenberg-3", None): (
        (0, "7f189195740ceedd0c8ebba5425af1448fe589f0af219581ec03180854ae7102"),
        (0, "a9e06c753d2cb165c46a620ee511fd223fc8c8ac7a5c11fbda9fd49562d40b3b"),
        (0, "a9e06c753d2cb165c46a620ee511fd223fc8c8ac7a5c11fbda9fd49562d40b3b"),
    ),
    ("plactic-3", 7): (
        (0, "5ad54d41a5139f11e71c7d90055a0c736887fac193d026657468f3a8e1786e12"),
        (1, "2b5ef5a417641359dc877d86ef0681f26e3ef34984d159aa9b67c957ebed082f"),
        (0, "5bd1de52d5978ffb7181e86bb8283e1f3a35f0fc4450be981254b30ff7de2f20"),
    ),
    ("chinese-5", 7): (
        (0, "48a27fab0c389b35e2dc7a15a655268c5fd72898a77a868005229e1c13c97ad8"),
        (1, "b47f52fc5e1f2d3e49589d1462222738c9244d837cdd3fcfba4df73c3adc7cc8"),
        (0, "631de7a6f2226595644804ee0a7d5e86eaa7459f2b534000cc8a0c354b7fb4bd"),
    ),
    ("retiring-complete", 5): (
        (0, "e5563ece4763c0a3c15447487ef2adce38007ada15351253f85b127755347774"),
        (1, "8df271240a0c38c4e8d56a3bc91ef23c4cbe69d787b28edcdfc5664fcfb53420"),
        (0, "e1e732b271e4a3bf94bb645f0872424b141648a78dc21c18503a7c9f77bb8848"),
    ),
    ("retiring-capped", 5): (
        (3, "84aa5afbf927197bd8ecfd4f41176a8c4cc1ebca0a0a94a9103798871aa374c6"),
        (1, "d62254668debe85b8aa7582c8c4bd8bcc25477c6430d8cf569cfdc0257e6d9fb"),
        (0, "c32b4195af5e7aab41058727e43a719776e8a2eadff996858d284caf81e691ad"),
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
    out = capsys.readouterr().out
    complete = (code, _sha(out))
    given = _run(capsys, ["check", str(path), *cap])
    doc = json.loads(out)
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
