"""Byte pins of the command-line output.

Each command runs in-process through ``cli.main`` without ``--out``, so
its CSV and JSON sidecar go to stdout.  The sha256 of the exit code,
stdout and stderr must match the pinned digest: any change to a digit
the CLI writes, to the order of the engine's arithmetic or to the output
format shows up here.  The bytes do not depend on the ambient
``mp.dps``.  When a change to the output is intended, the failure
message carries the new digest.
"""

import hashlib
import shlex

import pytest

from tsu11.cli import main

GOLDEN = {
    "lod --preset paper-start --circuit classical":
        "a69104948b9b08ba4421cec302ce0b4551dc424800704d8dfbf4cec311606323",
    "lod --preset paper-start --circuit tsu11":
        "e9f1aaed2ca679cacef770468a8ae401d8e74e95fcfcbb378f7828d35e283c91",
    "lod --preset paper-start --circuit su11 --s 0.3 --beta 1e5 --eta_p3 0.3":
        "c7f5fdb2bd77a3be7b1fe78db0df82b6f77514b30efb6546e2cef0687245e36a",
    "lod --preset paper-start --circuit vacuum":
        "69cf92dc84ffcb6a677f3e1a50bcbbe977c846fd7a7611a5dfa1569eaec6c484",
    "lodi --preset paper-start --phi_p 0.001 --phi_c 0.001":
        "f8ecddc48b95b310248b118f5b2a01e91531a20dfd398b2db3abf164ed4f66b1",
    "lodi --preset g15":
        "db33d8185e3e7cc516138bde7f8d44cc269db354abe7f64541974646d87bc798",
    "optimize --preset paper-start --grid 16":
        "470bbcc96219bbd0f9e6a4ee73d90d92de47920bacf1ecd1761c9f93354e0a7a",
    "optimize --preset paper-start --grid 8 --target lod":
        "b10d3856bea5b7a3979303fc2fc1b3b099e2f5b93207605e2ec05810dd2615da",
    "sweep --preset paper-start --axis r:0:3:61 --target lodi":
        "9154d27832a2ad2b2dbcfd9e02d085fd7d15fe2c1d04f17c84c0f9366693a8d9",
    "sweep --preset paper-start --axis eta:0.5:1:5":
        "46b8edb226ee52de71f3b808a298fcce57ffadb9570028d71cd2f16251d440b5",
    "sweep --preset paper-start --circuit su11 --s 0.3 --eta_p3 0.3 "
    "--axis r:0:2:21 --target variance":
        "c6ef55d9a3cb3fabd1564a7cc3de35723ad2a4e5199d131511f1cc2d6fd1479f",
    "vacuum --preset paper-start --axis phi:-0.05:0.05:41 --axis phi_p:-0.08:0.08:5":
        "fa9330027d7f4cf21f9ce4dd0689d2b636c5f8ca8dbb60d7479f12b5019b91a3",
}


def digest(code: int, out: str, err: str) -> str:
    blob = f"exit {code}\n--- stdout\n{out}--- stderr\n{err}"
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_output_bytes_match_the_pin(capsys, command):
    code = main(shlex.split(command))
    captured = capsys.readouterr()
    got = digest(code, captured.out, captured.err)
    assert got == GOLDEN[command], f"`tsu11 {command}` now hashes to {got}"
