"""frontier.py's checks, in process at r <= 5 with no RSS bound."""

import pytest

from kloostercodes.cli import run_command

import frontier


@pytest.mark.parametrize("check", frontier.CHECKS, ids=[c[0].__name__ for c in frontier.CHECKS])
def test_frontier_check_at_small_r(check):
    body, _, small, _, _ = check
    body(*small)


def test_frontier_verify_arguments_at_small_r(capsys):
    assert run_command(frontier.verify_args(3, 10 ** 7)) == 0
