"""The paper tables, four ablations and `repro explain` print
byte-identical output.

Each digest is the sha256 of a command's stdout, under ``--quiet`` for
the tables and ablations. The commands cover the K=3, CRP and RIP kernel
paths as well as the LRU-1, LRU-2, LFU and A0 columns, so a change to
any kernel, policy or sweep that moves a single decision shows up here.
The adaptivity ablation reads the moving-hotspot stream directly, and
the two `explain` replays cover a plain trace and an annotated (OLTP)
one, so a change to how a workload generates its stream shows up too.
The digests are the same under Python 3.10, 3.11 and 3.12. Run the
same command with ``python -m repro ... --quiet | sha256sum`` (no
``--quiet`` for `explain`) to reproduce one.
"""

import hashlib

import pytest

from repro.cli import main

DIGESTS = {
    "table4.1 --scale 0.1 --repetitions 1":
        "465913b37c81ae64e84925045eb79f22b957cab6087ee8478248998387829fe3",
    "table4.2 --scale 0.2 --repetitions 1":
        "4680e07506a0ad0b71004a5566252df503fe87ed97842e01660e0af8a379fe86",
    "table4.3 --scale 0.02":
        "8b079e8c86e0569ec596a5d2c36bf284187b0a42f3ecc532f1b64685ab6f9839",
    "ablation crp":
        "5105ea742056b51f1672b4118478256d9edd79bf1760041869d084531428fd5f",
    "ablation rip":
        "862c1747a9580d7ab2a5d56543cfb7ecb5ffcba83f3eeed3ec6c2f002b43f996",
    "ablation k-sweep":
        "5894babf9d144450564dbcef1b48d5f82dca503120f93d059f5e9cab8c7bc6b5",
    "ablation adaptivity":
        "4dbf4043709621be23f6c8c2627a48a0c9109014e90d0a71036c21a216e74eeb",
}

#: `repro explain` takes no ``--quiet``; both replays locate their
#: eviction and exit 0.
EXPLAIN_DIGESTS = {
    "explain --capacity 50 --page 60 --refs 3000":
        "5b1fddabd70f523c1f2ef9968722908380167961888e956313402c1b96f51dd5",
    "explain --workload oltp --capacity 100 --page 5 --refs 5000":
        "1fb1376e56d67b7ac5813fb81dce74cff77028229526f18ad1c743d8bc9b7677",
}


@pytest.mark.parametrize("command", sorted(DIGESTS))
def test_stdout_digest(command, capsys):
    assert main(command.split() + ["--quiet"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    digest = hashlib.sha256(captured.out.encode("utf-8")).hexdigest()
    assert digest == DIGESTS[command], captured.out


@pytest.mark.parametrize("command", sorted(EXPLAIN_DIGESTS))
def test_explain_digest(command, capsys):
    assert main(command.split()) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    digest = hashlib.sha256(captured.out.encode("utf-8")).hexdigest()
    assert digest == EXPLAIN_DIGESTS[command], captured.out
