"""Byte-identity pins for the kr-table, optimal, verify and selftest
commands.

Each case runs one cheap command in process and compares the sha256 of its
stdout, and its exit status, with the value recorded before a refactor.
The cases cover every output format, every kr-table mode, maximizer counts
on both sides of the counting cap, a budget refusal and bad parameters, so
a change meant to keep the output must leave every hash in place.  A
guard test reads the parser and requires a case for every --format
choice of every command, and one that leaves --format at its default.

The two selftest hashes were recorded when selftest became one suite of
17 checks, which changed its output by design: the table lists every check,
and the JSON document lost its "mode" field.  They were recorded again when
the suite gained its 18th check, shifted-vs-oracle-3-7, which adds one row
to the table and one entry to the JSON document and changes nothing else.

The kr-table case on (2, 10) at r = 23..24 pins two middle-row witnesses
far beyond the exhaustive search's reach and beyond the count cap.  It was
recorded while the witness still came from a walk, stopped at its first
attainer, over the families through colex member 0, so it checks that
taking the witness as the least shifted maximizer picks the same family.

The kr-table case on (2, 2000) at its top two rows pins the closed high
range where the lattice has too many members to build a witness, so the
rows carry the closed-form value with "maximizer":null.

The optimal case on m = 8 at r = 0..28 pins every row of a lattice the
exhaustive search took about 15 s to sweep.  It was recorded from that
search, so it checks that the shifted-family route, which answers it in
well under a second, gives the same maxima and the same witnesses.

The verify case on G(3, 7) over F3 with alpha = (1, 2, 7) was recorded
while Schubert codes still filtered the whole Grassmannian, 925,771
subspaces and about 16 s.  Every point of that subvariety contains E_2, so
it is now enumerated in G(1, 5), and the case checks that the lift back to
the minors of G(3, 7) gives the same code.

The verify case on G(2, 5) over F4 with alpha = (2, 5) was recorded from
the search with one subcode per Frobenius orbit, with the subspace budget
raised to 10^8: under the default budget that search refused r = 3, at
12,110,212 bases.  The torus search draws at most 3,037,799 bases, at
r = 4, so the case checks that it answers under the default budget with
the same weights.

The benchmark's own goldens, perfbench/goldens.json, are read here too and
checked in process, so an output drift on a benchmark command fails this
suite and not only the benchmark.
"""

import argparse
import hashlib
import json
from pathlib import Path

import pytest

import subclose.cli as cli

EMPTY = hashlib.sha256(b"").hexdigest()

GOLDENS = [
    ("kr-table --ell 2 --m 5", 0,
     "b7c77a82a845fce4d20ea91862c6bf0b49fcc0bc295417cef8db752b3486ab4b"),
    ("kr-table --ell 2 --m 6 --format json", 0,
     "cf21b7217787df961f4d49e452aa5b1465eb01798618459cf705597babe61a3e"),
    ("kr-table --ell 3 --m 6 --r 5..7 --format csv", 0,
     "2a8e7b7ea860a3bdc7da6a901213e4b9136f4bef7d75620843416a1e9eb1bd2f"),
    ("kr-table --ell 2 --m 8 --r 8..9 --format json", 0,
     "9a63b13d0275ada446a45b39af4ce51d46c9931c8d6b32956fc01276690fe025"),
    ("kr-table --ell 3 --m 7 --r 5..6", 0,
     "ca43f8167e030a13355047eb0741353cbc244a3a95cb456c10557430922708a2"),
    ("kr-table --ell 2 --m 7 --r 9..11 --mode oracle --format json", 0,
     "288bdd7da1771c156acf69c3365ca1344f07148613666169fcd2d5de3490a230"),
    ("kr-table --ell 2 --m 6 --mode both --format csv", 0,
     "c47f6beff6721a058f426b3d83700970a33450dc38d1422ee6782cbaea8e038c"),
    ("kr-table --ell 3 --m 7 --r 1..5 --mode closed --format json", 0,
     "38118903a569c03f651fded4f3bcf5d420959d7d6d7168aa177f57a4d4686d60"),
    ("kr-table --ell 3 --m 6 --format json", 0,
     "d138ef49a28dcc7e1539f173330d973acf9f3a7635e2d3ba39dda44f4527e312"),
    ("kr-table --ell 5 --m 7 --format json", 0,
     "12033f0092e754449daae03f5e9071825d0f0a36f58bddfb9fc034c263958209"),
    ("kr-table --ell 0 --m 3 --format json", 0,
     "6195c7218042897c4bbef399e91ad13812de82f6ba651facb1ef481926d6e145"),
    ("kr-table --ell 2 --m 10 --r 23..24 --budget-families 100000000000000 "
     "--format json", 0,
     "191830feb5a83e340af1a0a67b916ba230ec821a19e3fabd01a1d4c7e0226b01"),
    ("kr-table --ell 2 --m 2000 --r 1998999..1999000 --format json", 0,
     "974cf05db5d961d6ce39fcc3ce050183ad02cebca7688bdf4fc0a5e393779fcb"),
    ("kr-table --ell 2 --m 6 --mode closed", 2,
     EMPTY),
    ("kr-table --ell 2 --m 9 --r 18 --budget-families 1000", 1,
     EMPTY),
    ("kr-table --ell 2 --m 5 --r 7..3", 2,
     EMPTY),
    ("optimal --m 5 --r 0..10", 0,
     "edec383f339fb9a8a91a920fd8cd23d9f8ab079f3ae10f1b2d66395aa302eac3"),
    ("optimal --m 6 --r 3..9 --format json", 0,
     "b63219b8e3721711c7f98b5207bf6a55706001e4d9bd8f7e759e2456400f938c"),
    ("optimal --m 8 --r 0..28", 0,
     "a89018b977e2d0f6ca1620de4aa3979e527bc7aa52c7e35f645709f65ee813f6"),
    ("verify --ell 2 --m 4 --q 2 --format table", 0,
     "01739f85d69fe3aac84f28d7e9802f1a4d13d01342a4eb4afddc46e445135c78"),
    ("verify --ell 2 --m 4 --q 2 --alpha 2,4", 0,
     "131e57abfb884e9c9f6e5211d8fc2ac85fd5afaadf1af6ff78880cad8dd11008"),
    ("verify --ell 2 --m 4 --q 3 --r 1..2 --alpha 3,4 --format table", 0,
     "d8c48b3880061b4e49b59d24f49cdb844a34eb28866a618bbe7e1f29aa3819cd"),
    ("verify --ell 1 --m 3 --q 4", 0,
     "2b6aa86c1e84f1ff052572070e9a014eb8f4b4c67d4bcf8fd6bcfca9d9d67767"),
    ("verify --ell 2 --m 5 --q 2 --r 10", 0,
     "e4d32af3f79a21c51ec8d4a2379d0c41c3f55700f08e78ed08bcc3ec500fd384"),
    ("verify --ell 2 --m 6 --q 2 --r 15", 0,
     "6e26a3274580aa6eff4bed984dec188889f98032406024f6ea23193218b0fcae"),
    ("verify --ell 3 --m 7 --q 3 --alpha 1,2,7 --r 1", 0,
     "3ec601a4bd9ab350917f0a5e7755dae8292102146f724b4b89b62a467b04fdfa"),
    ("verify --ell 2 --m 5 --q 4 --alpha 2,5", 0,
     "4febdc72983caa4222fc50355923ffd2fcb5cdb03b58bb8b6448b2a43df04b2a"),
    ("verify --ell 2 --m 5 --q 2 --budget-subspaces 100", 1,
     EMPTY),
    ("verify --ell 2 --m 4 --q 2 --alpha 3,2", 2,
     EMPTY),
    ("selftest", 0,
     "4e8b5f0dd3ddfa87bee80046a2d34c9af743c6868e8cb08741a56091c279ab35"),
    ("selftest --format json", 0,
     "7b05a8685fb3b7d7f2df62848b60f9be5406b8b98002065fda6e231d36545ab3"),
]


@pytest.mark.parametrize(("command", "status", "digest"), GOLDENS)
def test_cli_output_is_pinned(capsys, command, status, digest):
    assert cli.main(command.split()) == status
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_every_format_has_a_golden():
    # every layout, each command's default among them, meets a byte pin,
    # so moving a layout cannot leave its output unchecked
    parser = cli.build_parser()
    (subparsers,) = (
        action
        for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    wanted = {
        (command, choice)
        for command, sub in subparsers.choices.items()
        for action in sub._actions
        if action.dest == "format"
        for choice in (*action.choices, "default")
    }
    pinned = set()
    for command, _, digest in GOLDENS:
        if digest != EMPTY:
            argv = command.split()
            pinned.add((argv[0], parser.parse_args(argv).format))
            if "--format" not in argv:
                pinned.add((argv[0], "default"))
    assert not wanted - pinned, f"formats without a golden: {sorted(wanted - pinned)}"


BENCHMARK_GOLDENS = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "goldens.json").read_text()
)


@pytest.mark.parametrize("command", sorted(BENCHMARK_GOLDENS))
def test_benchmark_output_is_pinned(capsys, command):
    golden = BENCHMARK_GOLDENS[command]
    assert cli.main(command.split()) == golden["exit"]
    out = capsys.readouterr().out.encode()
    assert len(out) == golden["bytes"]
    assert hashlib.sha256(out).hexdigest() == golden["sha256"]
