"""CLI stdout pinned byte for byte.

golden_cli.json maps each command line to the stdout it printed when the
weight prefix was still computed by the dynamic program (now
oracles.weight_prefix_dp): weights for every code at --max-j 12, the
recursive moments of every code at --h 10, and verify at --h-max 10, each
in json, csv and text for r = 1..3.  A second set was recorded while the
recursions still ran in exact rationals, one copy per rank: moments direct
--h 10, field, kloosterman and gauss (so2, o2, so4 with --a 1) for
r = 1..3, and groups enumerate (so2 and o2 at r = 1, 2; so4 at r = 1), each
in json, csv and text.  A third set, recorded before the work limits became
one budget, pins groups dump for so2 and o2 at r = 1, 2 in json, csv and
text, so every subcommand is covered.  A fourth, recorded while SO-(4,q) was
still found by a hash join over row halves, pins groups dump for so4 at
r = 1 in csv and text (the 720 elements of SO-(4,3) in canonical order);
test_cli.test_groups_dump_so4_json checks the json dump against the csv one.
"""

import json
import os

import pytest

from kloostercodes.cli import run_command

with open(os.path.join(os.path.dirname(__file__), "golden_cli.json")) as f:
    GOLDEN = json.load(f)


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_stdout_matches_golden(capsys, command):
    code = run_command(command.split())
    assert code == 0
    assert capsys.readouterr().out == GOLDEN[command]
