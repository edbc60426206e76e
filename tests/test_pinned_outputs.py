"""Byte-for-byte pins of CLI payloads that run through the exact kernel.

The digests were recorded from the Fraction Gauss-Jordan kernel.  Any change
to ``linalg`` (or to the witness code above it) must leave these payloads
unchanged: reduced row echelon forms are unique and ``Fraction`` normalizes,
so a correct rewrite of the arithmetic cannot move a single byte.
"""

import hashlib

import pytest

from flagiso import cli


PINNED = {
    ("witness-rebase", "--seed", "0"): "c9cb69460f2cd3ab772f192cdd6c3652",
    ("witness-rebase", "--seed", "1"): "b1768ca5f6a1679f8c56db388d31ff79",
    ("witness-rebase", "--seed", "2"): "6908ebdbf5902f4e754dd78b1969a5a1",
    ("witness-rebase", "--seed", "3"): "5eafd2a14b8a8808c36a73ba0d12da66",
    ("witness-rebase", "--seed", "4"): "25331db77cad0e60613a94cd9cc345b3",
    ("witness-rebase", "--seed", "0", "--isotropic"): "1c950962575247764102959cf6032c79",
    ("witness-rebase", "--seed", "1", "--isotropic"): "8f6f3d751ed3a9962d73992f766cc662",
    ("witness-rebase", "--seed", "2", "--isotropic"): "53ce4db624c941fdc64a67bdde818d8c",
    ("witness-rebase", "--seed", "3", "--isotropic"): "44e7a8e7c33323a5e07979e148985cc0",
    ("witness-rebase", "--seed", "4", "--isotropic"): "ea3a725225178112d6686d89686de49b",
    ("witness-rebase", "--seed", "0", "--prime", "5", "--isotropic"): "407144f2247d707709eb0cac00fa0207",
    ("witness-rebase", "--seed", "1", "--prime", "5", "--isotropic"): "6ce939c97f675a6be625c044dd4b17ac",
    ("witness-rebase", "--seed", "2", "--prime", "5", "--isotropic"): "81efd422c19edbacd865465ec6970b80",
    ("witness-rebase", "--seed", "3", "--prime", "5", "--isotropic"): "453126dcb6811d1f875fa510777306cf",
    ("witness-rebase", "--seed", "4", "--prime", "5", "--isotropic"): "4b3bd2077bea2b30e92329f8635a8989",
    ("witness-bd", "--n", "3", "--all"): "0919a18cf5a0aa59956be7a29948e758",
    (
        "points", "--type", "D", "--ambient", "6", "--dims", "3", "--q", "3", "--brute-force",
    ): "fa3dbe6966a425b10b030f55844c3dc8",
}


@pytest.mark.parametrize("argv", sorted(PINNED), ids=" ".join)
def test_json_payload_digest_is_pinned(capsys, argv):
    assert cli.main([*argv, "--json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.md5(out.encode()).hexdigest() == PINNED[argv]
