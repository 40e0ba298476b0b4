import argparse
import contextlib
import io
import json
import os
import signal
import subprocess
import sys
import time
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kloostercodes
from kloostercodes import (
    CapacityError,
    GaussSumRequest,
    GroupId,
    field_create,
    gauss_sum_closed,
    kloosterman,
    kloosterman_gl,
    sk_moment,
    weight_prefix,
)
from kloostercodes import charsums, cli, moments
from kloostercodes.cli import ENV_PREFIX, run_command

from test_golden import GOLDEN


def run(capsys, *argv):
    code = run_command(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_field_text(capsys):
    code, out, _ = run(capsys, "field", "--r", "2")
    assert code == 0
    assert "GF(9)" in out and "x^2 + 1" in out


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_field_counts_the_squares_without_listing_them(capsys, monkeypatch, fmt):
    # there are (q - 1)/2 nonzero squares in every field: `field` reports the
    # count without building the sorted tuple of them
    expected = run(capsys, "field", "--r", "5", "--format", fmt)

    def refused(self):
        raise AssertionError("field listed the squares")

    monkeypatch.setattr(kloostercodes.FieldContext, "squares", refused)
    assert run(capsys, "field", "--r", "5", "--format", fmt) == expected
    assert expected[0] == 0 and "121" in expected[1]


def test_field_custom_poly(capsys):
    code, out, _ = run(capsys, "field", "--r", "2", "--poly", "2,2,1", "--format", "json")
    assert code == 0
    assert json.loads(out)["modulus"] == [2, 2, 1]


def test_reducible_poly_is_usage_error(capsys):
    code, _, err = run(capsys, "field", "--r", "2", "--poly", "2,0,1")
    assert code == 2
    assert "x^2 + 2" in err


def test_poly_file(capsys, tmp_path):
    cfg = tmp_path / "m.json"
    cfg.write_text('{"2": [2, 2, 1]}')
    code, out, _ = run(capsys, "field", "--r", "2", "--poly-file", str(cfg), "--format", "json")
    assert code == 0
    assert json.loads(out)["modulus"] == [2, 2, 1]


@pytest.mark.parametrize("content, needle", [
    (None, "No such file"),
    ("garbage line\n", "line 1 'garbage line'"),
    ('{"2": 5}', "entry '2'"),
    ('{"2": [1.5, 0, 1]}', "entry '2'"),
    ("3: 1 2 0 1\n", "no modulus for r=2"),
    ("2: 1 0 1\n2: 2 2 1\n", "line 2 '2: 2 2 1': a second modulus for r=2"),
    ('{"2": [1, 0, 1], "2": [2, 2, 1]}', "entry '2': a second modulus for r=2"),
], ids=["missing", "garbage-line", "json-int", "json-float", "no-entry-for-r",
        "repeated-r", "json-repeated-r"])
def test_poly_file_refusals(capsys, tmp_path, content, needle):
    # an unreadable or malformed file, or one without the requested r, is a
    # usage error naming the flag: never a traceback, never the shipped modulus
    cfg = tmp_path / "moduli.txt"
    if content is not None:
        cfg.write_text(content)
    code, out, err = run(capsys, "field", "--r", "2", "--poly-file", str(cfg))
    assert code == 2 and out == ""
    assert "--poly-file" in err and str(cfg) in err and needle in err


@pytest.mark.parametrize("argv, env", [
    (["--poly", "1,0,1", "--poly-file", "FILE"], {}),
    (["--poly", "1,0,1"], {"KLOOSTERCODES_POLY_FILE": "FILE"}),
    (["--poly-file", "FILE"], {"KLOOSTERCODES_POLY": "1,0,1"}),
], ids=["flags", "env-poly-file", "env-poly"])
def test_two_modulus_sources_are_a_usage_error(tmp_path, argv, env):
    # neither source is dropped for the other, even where both agree
    cfg = tmp_path / "moduli.txt"
    cfg.write_text("2: 1 0 1\n")
    sub = {"FILE": str(cfg)}.get
    code, out, err = _run_captured(["field", "--r", "2"] + [sub(a, a) for a in argv],
                                   {k: sub(v, v) for k, v in env.items()})
    assert (code, out) == (2, "")
    assert "--poly 1,0,1 and --poly-file %s both name the modulus" % cfg in err


@pytest.mark.parametrize("argv", [["moments", "direct", "--h"],
                                  ["moments", "recursive", "--code", "so4", "--h"],
                                  ["weights", "--code", "so4", "--max-j"]],
                         ids=["direct", "recursive", "weights"])
def test_negative_h_is_a_usage_error(capsys, argv):
    # argparse refuses the value, naming the flag and its bound, not the
    # library argument behind it
    code, out, err = run(capsys, *argv, "-1", "--r", "2")
    assert code == 2 and out == ""
    assert "argument %s: must be >= 0, got -1" % argv[-1] in err


# each integer flag, a command that takes it, and the least value it admits
_BOUNDED_FLAGS = [
    ("verify --h-max", 1), ("gauss --n", 1), ("gauss --group gl --t", 0),
    ("kloosterman --a", 1), ("gauss --a", 1), ("moments direct --r", 1),
    ("field --limit-ops", 0), ("moments direct --h", 0), ("weights --max-j", 0),
]


@pytest.mark.parametrize("form", ["argv", "env"])
@pytest.mark.parametrize("command, low", _BOUNDED_FLAGS,
                         ids=[command for command, _ in _BOUNDED_FLAGS])
def test_flag_below_its_bound_is_a_usage_error(command, low, form):
    # the flag's type checks the bound, for a value from the environment too;
    # the bound itself is admitted
    *argv, flag = command.split()
    var = ENV_PREFIX + flag[2:].upper().replace("-", "_")

    def run_at(value):
        if form == "argv":
            return _run_captured(argv + [flag, str(value)], {})
        return _run_captured(argv, {var: str(value)})

    code, out, err = run_at(low - 1)
    assert (code, out) == (2, "")
    assert ("argument %s: must be >= %d, got %d" % (flag, low, low - 1) if form == "argv" else
            "%s='%d' is not a valid value for %s: must be >= %d" % (var, low - 1, flag, low)) in err
    assert "Traceback" not in err
    assert run_at(low)[0] == 0


def test_non_integer_reads_invalid_int_value(capsys):
    code, out, err = run(capsys, "verify", "--h-max", "x")
    assert (code, out) == (2, "")
    assert "argument --h-max: invalid int value: 'x'" in err


@pytest.mark.parametrize("argv, env, needle", [
    (["kloosterman", "--a", "5"], {}, "--a 5 is not a nonzero element of GF(3)"),
    (["gauss", "--a", "99"], {}, "--a 99 is not a nonzero element of GF(3)"),
    (["kloosterman", "--r", "2"], {"KLOOSTERCODES_A": "9"},
     "--a 9 is not a nonzero element of GF(9)"),
    (["gauss", "--r", "2"], {"KLOOSTERCODES_A": "10"}, "--a 10 is not a nonzero element of GF(9)"),
    (["field", "--r", "20"], {}, "--r 20 has no shipped modulus"),
    (["verify"], {"KLOOSTERCODES_R": "9"}, "--r 9 has no shipped modulus"),
], ids=["kloosterman-a", "gauss-a", "kloosterman-a-env", "gauss-a-env", "r", "r-env"])
def test_refusals_that_need_the_field_name_the_flag(argv, env, needle):
    # no flag type knows q or the shipped moduli: the field build checks them
    code, out, err = _run_captured(argv, env)
    assert (code, out) == (2, "")
    assert needle in err and "Traceback" not in err
    if "--r" in needle:
        assert "--poly" in err and "--poly-file" in err


def test_largest_a_is_admitted(capsys):
    code, out, _ = run(capsys, "kloosterman", "--r", "2", "--a", "8", "--format", "csv")
    assert code == 0 and out.splitlines()[0] == "a,K"


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE on this platform")
def test_closed_stdout_ends_the_command_quietly():
    # `kloostercodes kloosterman --r 8 | head -1`: about 90 kB of output,
    # past a pipe's buffer, so the write after the reader has gone is killed
    # by SIGPIPE and leaves no traceback
    src = os.path.dirname(os.path.dirname(kloostercodes.__file__))
    path = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.Popen([sys.executable, "-m", "kloostercodes", "kloosterman", "--r", "8"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline().startswith(b"K(1) = ")
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == -signal.SIGPIPE
    assert err == b""


def test_values_past_the_int_string_limit_print(capsys, f3):
    # SO-(180,3) has a Gauss sum of more than 4300 digits
    value = gauss_sum_closed(f3, GaussSumRequest(n=90, variant="so", a=1))
    assert abs(value) > 10 ** 4300
    code, out, _ = run(capsys, "gauss", "--r", "1", "--n", "90", "--format", "csv")
    assert code == 0
    # run_command lifted the interpreter's limit, so the value formats here too
    assert out == "value\n%d\n" % value


# each estimate is W^2 for W = exponent * bits(q) // 64 + 1 words, with the
# exponent 2n^2 of |O-(2n,q)| < q^(2n^2) or t^2 of |K_GL(t)| < q^(t^2)
@pytest.mark.parametrize("r, argv, call, cost", [
    (1, "gauss --r 1 --n 800",
     lambda ctx: gauss_sum_closed(ctx, GaussSumRequest(n=800, variant="so", a=1)),
     (2 * 800 ** 2 * 2 // 64 + 1) ** 2),
    (8, "gauss --r 8 --n 400 --variant o",
     lambda ctx: gauss_sum_closed(ctx, GaussSumRequest(n=400, variant="o", a=1)),
     (2 * 400 ** 2 * 13 // 64 + 1) ** 2),
    (8, "gauss --r 8 --group gl --t 1000", lambda ctx: kloosterman_gl(ctx, 1000, 1),
     (1000 ** 2 * 13 // 64 + 1) ** 2),
], ids=["gauss-r1-n800", "gauss-r8-n400", "gl-r8-t1000"])
def test_big_integer_jobs_are_refused_by_size(capsys, r, argv, call, cost):
    # with no limit on them, each of these ran for over a minute
    ctx = field_create(r)
    start = time.perf_counter()
    with pytest.raises(CapacityError) as exc:
        call(ctx)
    assert time.perf_counter() - start < 1
    assert ctx._k_table is None  # refused before K is read
    assert "about %d operations (limit 5000000)" % cost in str(exc.value)
    start = time.perf_counter()
    code, out, err = run(capsys, *argv.split())
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert "about %d operations (limit 5000000)" % cost in err and "--limit-ops" in err


@pytest.mark.parametrize("call, cost", [
    (lambda ctx, limit: gauss_sum_closed(ctx, GaussSumRequest(n=90, variant="so", a=1),
                                         ops_limit=limit), (2 * 90 ** 2 * 2 // 64 + 1) ** 2),
    (lambda ctx, limit: kloosterman_gl(ctx, 30, 2, ops_limit=limit), (30 ** 2 * 2 // 64 + 1) ** 2),
], ids=["gauss-n90", "gl-t30"])
def test_big_integer_jobs_are_admitted_at_their_estimate(f3, call, cost):
    assert call(f3, cost) == call(f3, 10 ** 9)
    with pytest.raises(CapacityError, match="about %d operations" % cost):
        call(f3, cost - 1)


R12_FIELD = "field --r 12 --poly 1,0,0,0,0,0,0,0,1,0,0,1,1"


def test_field_past_the_shipped_moduli_is_admitted(capsys):
    # the tables of GF(3^12) cost q*r = 6377292 operations, above the default
    code, out, err = run(capsys, *R12_FIELD.split(), "--limit-ops", "0")
    assert (code, out) == (2, "")
    assert "about 6377292 operations" in err and "limit 0" in err and "--limit-ops" in err
    code, out, err = run(capsys, *R12_FIELD.split())
    assert (code, out) == (2, "")
    assert "about 6377292 operations (limit 5000000)" in err
    # GF(3^9) at q*r = 177147 is admitted by the default and at its estimate only
    r9 = "field --r 9 --poly 1,0,1,2,0,0,0,0,0,1".split()
    assert run(capsys, *r9)[0] == 0
    assert run(capsys, *r9, "--limit-ops", "177147")[0] == 0
    code, out, err = run(capsys, *r9, "--limit-ops", "177146")
    assert (code, out) == (2, "")
    assert "about 177147 operations" in err
    # a modulus of the wrong degree is refused as before, without forming 3^r
    start = time.perf_counter()
    code, out, err = run(capsys, "field", "--r", "100000000", "--poly", "1,1")
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert "monic of degree 100000000" in err


def test_kloosterman_table(capsys):
    code, out, _ = run(capsys, "kloosterman", "--r", "1", "--format", "json")
    assert code == 0
    assert json.loads(out)["values"] == {"1": "-1", "2": "2"}


def test_kloosterman_single(capsys):
    code, out, _ = run(capsys, "kloosterman", "--r", "2", "--a", "1", "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["a,K", "1,5"]


def test_moments_direct_json(capsys):
    code, out, _ = run(capsys, "moments", "direct", "--r", "2", "--h", "4", "--format", "json")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [row["sk"] for row in rows] == ["4", "5", "31", "131", "643"]


def test_moments_recursive(capsys):
    code, out, _ = run(capsys, "moments", "recursive", "--r", "1", "--code", "so2",
                       "--h", "4", "--format", "json")
    assert code == 0
    assert [row["sk"] for row in json.loads(out)["rows"]] == ["1", "-1", "1", "-1", "1"]


def test_moments_recursive_rank4(capsys):
    code, out, _ = run(capsys, "moments", "recursive", "--r", "1", "--code", "so4",
                       "--h", "2", "--format", "json")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [(row["h"], row["sk"]) for row in rows] == [(0, "1"), (2, "1"), (4, "1")]


def test_weights_json(capsys):
    code, out, _ = run(capsys, "weights", "--code", "o2", "--r", "1", "--max-j", "8",
                       "--format", "json")
    assert code == 0
    counts = json.loads(out)["counts"]
    assert counts["1"] == "12" and counts["8"] == "128"


def test_weights_csv(capsys):
    code, out, _ = run(capsys, "weights", "--code", "so2", "--r", "1", "--max-j", "2",
                       "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["j,count", "0,1", "1,4", "2,6"]


def test_groups_enumerate(capsys):
    code, out, _ = run(capsys, "groups", "enumerate", "--r", "1", "--group", "so4",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["order"] == 720
    assert data["histogram"] == {"0": 90, "1": 315, "2": 315}


def test_groups_dump(capsys):
    code, out, _ = run(capsys, "groups", "dump", "--r", "1", "--group", "so2",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["elements"][0] == [0, 1, 2, 0]
    assert len(data["elements"]) == 4


def test_groups_capacity_exit(capsys):
    code, _, err = run(capsys, "groups", "enumerate", "--r", "2", "--group", "so4")
    assert code == 2
    assert "histogram_closed_form" in err


def test_limit_ops_flag(capsys):
    code, _, err = run(capsys, "moments", "direct", "--r", "2", "--h", "2",
                       "--limit-ops", "10")
    assert code == 2
    assert "limit" in err


def test_limit_ops_zero_is_a_limit(capsys):
    # 0 is an explicit limit, not "use the defaults"
    code, out, err = run(capsys, "moments", "direct", "--r", "2", "--h", "2",
                         "--limit-ops", "0")
    assert code == 2
    assert out == ""
    assert "limit 0" in err


def test_weights_honours_limit_ops(capsys):
    # the so4 weight prefix at --max-j 8 is priced at q*r + D(27) * 9^2 = 729
    # operations, D(27) = 8 possible dual weights (6 occur); it builds no
    # histogram, so delta(2) costs nothing
    code, _, err = run(capsys, "weights", "--code", "so4", "--r", "3", "--limit-ops", "200")
    assert code == 2
    assert "weight prefix over GF(27)" in err and "about 729 operations" in err
    assert "limit 200" in err and "delta(2" not in err
    code, _, err = run(capsys, "weights", "--code", "so4", "--r", "3", "--max-j", "10",
                       "--limit-ops", "500")
    assert code == 2
    assert "weight prefix" in err and "limit 500" in err and "--limit-ops" in err


def test_weights_large_field_with_raised_limit(capsys):
    # the weight prefix at q = 3^8 is priced at q*r + D(q) * (j+1)^2 = 53469
    # operations, D(q) = 109 possible dual weights (82 occur); the flag must
    # lift a limit below that
    argv = ("weights", "--code", "so4", "--r", "8", "--max-j", "2", "--format", "csv")
    code, _, err = run(capsys, *argv, "--limit-ops", "53468")
    assert code == 2
    assert "about 53469 operations" in err and "limit 53468" in err
    code, out, _ = run(capsys, *argv, "--limit-ops", "53469")
    assert code == 0
    assert out.splitlines() == [
        "j,count", "0,1", "1,3706040463797124",
        "2,1939843032177072620705429084626368917369514",
    ]


@pytest.mark.parametrize("code_name", ["so2", "o2", "so4"])
def test_moments_recursive_honours_limit_ops(capsys, code_name):
    code, _, err = run(capsys, "moments", "recursive", "--code", code_name, "--r", "3",
                       "--h", "10", "--limit-ops", "400")
    assert code == 2
    assert "weight prefix" in err and "limit 400" in err


def test_long_pless_steps_are_refused_at_once(capsys):
    # SO-(4,3) at h = 16000: the weight prefix (j <= N = 720) is admitted,
    # but 16000 rounds of 721 steps on integers of 2773 words, about 40 s of
    # work, are not, and the refusal comes before the first step
    start = time.perf_counter()
    code, out, err = run(capsys, "moments", "recursive", "--code", "so4", "--r", "1",
                         "--h", "16000")
    assert time.perf_counter() - start < 5
    assert code == 2 and out == ""
    assert "Pless sums up to h=16000" in err and "W = 2773 words" in err
    assert "limit 5000000" in err and "--limit-ops" in err


@pytest.mark.parametrize("argv, cost", [
    ("moments direct --r 2 --h 2 --limit-ops 10", 9 * 2 + 9),  # q*r + q
    # --max-j 8, D(27) = 8 possible dual weights
    ("weights --code so4 --r 3 --limit-ops 200", 27 * 3 + 8 * (8 + 1) ** 2),
    # the SO-(4,3) column search: the Gram table, 4 q^8, and three candidate
    # masks of at most |O-(4,q)| = 1440 frames by q^4 vectors
    ("groups enumerate --r 1 --group so4 --limit-ops 100000", 4 * 3 ** 8 + 3 * 1440 * 81),
    ("kloosterman --r 2 --limit-ops 10", 9 * 2 + 9),  # the K table, q*r + q
    ("gauss --r 2 --group so4 --a 1 --limit-ops 10", 9 * 2 + 9),
    ("weights --code so2 --r 3 --limit-ops 10", 27 * 3 + 8 * (8 + 1) ** 2),  # a final price
])
def test_every_refusal_names_the_flag(capsys, argv, cost):
    code, out, err = run(capsys, *argv.split())
    limit = argv.split()[-1]
    assert code == 2
    assert out == ""
    assert "about %d operations" % cost in err
    assert "limit %s" % limit in err
    assert "--limit-ops" in err


@pytest.mark.parametrize("argv, limit", [
    ("kloosterman --r 2 --format csv", 27),
    ("kloosterman --r 2 --a 4 --format csv", 27),
    ("gauss --r 2 --group so4 --a 1 --format csv", 27),
    ("gauss --r 2 --group gl --t 2 --a 1 --format csv", 27),
    # the weight prefix, q*r + D(q) (j+1)^2: named once, before any work
    ("weights --code so2 --r 3 --format csv", 27 * 3 + 8 * 9 ** 2),
    ("weights --code so4 --r 3 --format csv", 27 * 3 + 8 * 9 ** 2),
    ("weights --code so4 --r 8 --max-j 2 --format csv", 6561 * 8 + 109 * 3 ** 2),
    ("moments recursive --code o2 --r 3 --h 10 --format csv", 27 * 3 + 8 * 11 ** 2),
])
def test_limit_ops_is_honoured_at_its_estimate(capsys, argv, limit):
    # a refusal's price is final: the job runs at the price it names
    default = run(capsys, *argv.split())
    assert default[0] == 0
    assert run(capsys, *argv.split(), "--limit-ops", str(limit)) == default
    code, out, err = run(capsys, *argv.split(), "--limit-ops", str(limit - 1))
    assert (code, out) == (2, "")
    assert "about %d operations" % limit in err and "--limit-ops" in err


def test_so4_enumeration_no_longer_counts_candidate_matrices(capsys):
    # a limit far below the 3^16 candidate matrices admits the column search
    command = "groups enumerate --r 1 --group so4 --format json"
    code, out, _ = run(capsys, *command.split(), "--limit-ops", "1000000")
    assert code == 0
    assert out == GOLDEN[command]


def test_groups_dump_so4_json(capsys):
    code, out, _ = run(capsys, "groups", "dump", "--r", "1", "--group", "so4",
                       "--format", "json")
    assert code == 0
    elements = json.loads(out)["elements"]
    assert len(elements) == 720
    code, csv_out, _ = run(capsys, "groups", "dump", "--r", "1", "--group", "so4",
                           "--format", "csv")
    assert code == 0
    assert [" ".join(map(str, w)) for w in elements] == csv_out.splitlines()[1:]


def test_kloosterman_r8_reads_one_table(capsys):
    code, out, _ = run(capsys, "kloosterman", "--r", "8", "--format", "csv")
    assert code == 0
    rows = out.splitlines()
    assert len(rows) == 3 ** 8
    values = [int(row.split(",")[1]) for row in rows[1:]]
    assert sum(values) == 1
    assert max(abs(v) for v in values) <= 2 * 3 ** 4


@pytest.mark.parametrize("a", [None, 1, 40, 80])
def test_kloosterman_past_the_golden_sizes(capsys, monkeypatch, a):
    # r = 4, where golden_cli.json stops at 3: every format against the
    # documents built here from kloosterman(ctx, a), and each call admits the
    # K table once and reads no K(a) one a at a time
    ctx = field_create(4)
    rows = [(b, kloosterman(ctx, b)) for b in (range(1, 81) if a is None else [a])]
    want = _shapes({"q": 81}, "values", {str(b): str(k) for b, k in rows}, ("a", "K"), rows,
                   ["K(%d) = %d" % row for row in rows])
    calls, table = [], charsums._kloosterman_table

    def spy(ctx, ops_limit):
        calls.append(ops_limit)
        return table(ctx, ops_limit)

    def refused(*args, **kw):
        raise AssertionError("read K(a) one a at a time")

    monkeypatch.setattr(charsums, "_kloosterman_table", spy)
    monkeypatch.setattr(charsums, "kloosterman", refused)
    argv = ["kloosterman", "--r", "4"] + ([] if a is None else ["--a", str(a)])
    for fmt, out in want.items():
        calls.clear()
        assert run(capsys, *argv, "--format", fmt) == (0, out, "")
        assert calls == [charsums.DEFAULT_OPS_LIMIT]


_VERIFY_FIELDS = ("code", "h", "direct", "recursive", "match")


@pytest.mark.parametrize("block, plain", [
    # members ordered by their key as a string, by a decimal-string or a bare value
    (cli._Rows([(10, -2), (1, 5), (2, 7)], ("a", "K"), '"%d": "%d"'),
     {"10": "-2", "1": "5", "2": "7"}),
    (cli._Rows([(0, 3), (2, 1)], ("beta", "count"), '"%d": %d'), {"0": 3, "2": 1}),
    # objects with sorted keys, a left-out column and a bool column
    (cli._Rows([("so2", 1, -1, -1, True), ("so2", 2, 5, 6, False)], _VERIFY_FIELDS,
               (None, "%d", '"%d"', '"%d"', "bool")),
     [{"h": 1, "direct": "-1", "recursive": "-1", "match": True},
      {"h": 2, "direct": "5", "recursive": "6", "match": False}]),
    (cli._Rows([(0, 4), (2, 31)], ("h", "sk"), ("%d", '"%d"')),
     [{"h": 0, "sk": "4"}, {"h": 2, "sk": "31"}]),
    # empty blocks
    (cli._Rows([], ("a", "K"), '"%d": "%d"'), {}),
    (cli._Rows([], _VERIFY_FIELDS, (None, "%d", '"%d"', '"%d"', "bool")), []),
], ids=["members", "bare-members", "objects-bool", "objects", "no-members", "no-objects"])
def test_dumps_writes_rows_blocks(block, plain):
    # alone, as a document's member and inside a list of documents: the
    # json module's layout of the block written out
    for wrap in (lambda v: v, lambda v: {"q": 9, "rows": v, "a": [1]},
                 lambda v: [{"z": v, "code": "so2"}, {"rows": v}]):
        assert cli._dumps(wrap(block)) == json.dumps(wrap(plain), sort_keys=True, indent=2)


# each job at r <= 2 with the estimate of the last job it admits: n is drawn
# around it, so both sides of every refusal are covered
_PARITY_JOBS = [
    ("field --r 2", 0),
    ("kloosterman --r 2", 27),
    ("moments direct --r 2 --h 3", 27),
    ("moments recursive --r 2 --code so4 --h 2", 18 + 5 * 9),  # D(9) = 5
    ("weights --code o2 --r 2 --max-j 3", 18 + 5 * 16),
    ("groups enumerate --r 2 --group so2", 27),
    ("groups dump --r 1 --group o2", 6),
    ("gauss --r 2 --group o2 --a 3", 27),
    ("verify --r 1 --h-max 2", 3 + 3 * 9),  # the so2 and o2 prefixes, D(3) = 3
]


def _run_captured(argv, env):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, env), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_command(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=25, deadline=None)
@given(job=st.sampled_from(_PARITY_JOBS), offset=st.integers(-3, 3),
       fmt=st.sampled_from(["json", "csv", "text"]))
def test_limit_env_and_flag_agree(job, offset, fmt):
    command, estimate = job
    n = str(max(0, estimate + offset))
    argv = command.split() + ["--format", fmt]
    by_env = _run_captured(argv, {"KLOOSTERCODES_LIMIT_OPS": n})
    by_flag = _run_captured(argv + ["--limit-ops", n], {})
    assert by_env == by_flag
    assert (by_flag[0] == 0) == (int(n) >= estimate)


_MODE_JOBS = ["moments direct --h 2", "moments recursive --code so4 --h 2",
              "groups enumerate --group so2", "groups dump --group o2"]
_COMMON_FLAGS = ["--r 2", "--format csv", "--limit-ops 10", "--poly 1,0,1"]


@settings(max_examples=25, deadline=None)
@given(job=st.sampled_from(_MODE_JOBS), flag=st.sampled_from(_COMMON_FLAGS))
def test_flags_before_the_mode_are_rejected(job, flag):
    # a common flag belongs to the mode: after it, it acts as its environment
    # variable does; before it, it is a usage error, never silently dropped
    command, mode, *rest = job.split()
    name, value = flag.split()
    before = _run_captured([command, name, value, mode, *rest], {})
    assert before[0] == 2 and before[1] == ""
    after = _run_captured([command, mode, *rest, name, value], {})
    by_env = _run_captured(job.split(), {ENV_PREFIX + name[2:].upper().replace("-", "_"): value})
    assert after == by_env


@pytest.mark.parametrize("r", [6, 7, 8])
def test_verify_at_advertised_sizes(capsys, r):
    # r = 8 runs under the default limits
    code, out, _ = run(capsys, "verify", "--r", str(r), "--h-max", "10")
    assert code == 0
    assert out.splitlines()[-1] == "verified: all moments match"


def test_gauss_subcommands(capsys):
    code, out, _ = run(capsys, "gauss", "--r", "1", "--group", "so4", "--a", "1",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["value"] == "-225"
    code, out, _ = run(capsys, "gauss", "--r", "1", "--group", "gl", "--t", "2",
                       "--a", "1", "--format", "json")
    assert code == 0
    assert json.loads(out)["value"] == "21"
    code, out, _ = run(capsys, "gauss", "--r", "1", "--n", "1", "--variant", "o",
                       "--a", "1", "--format", "json")
    assert code == 0
    assert json.loads(out)["value"] == "5"
    # --n alone means --variant so: n = 2 is SO-(4,3)
    code, out, _ = run(capsys, "gauss", "--r", "1", "--n", "2", "--a", "1", "--format", "json")
    assert code == 0
    assert json.loads(out)["value"] == "-225"


@pytest.mark.parametrize("env, argv, flags", [
    ({}, ["--group", "so2", "--t", "5"], "--t"),
    ({"KLOOSTERCODES_T": "2"}, ["--group", "so4"], "--t"),
    ({}, ["--group", "gl", "--n", "2"], "--n"),
    ({}, ["--group", "gl", "--t", "2", "--variant", "o"], "--variant"),
    ({}, ["--group", "so4", "--variant", "o"], "--variant"),
    ({"KLOOSTERCODES_VARIANT": "o"}, ["--group", "o2"], "--variant"),
    ({}, ["--group", "o2", "--n", "2"], "--group --n"),
    ({}, ["--group", "so4", "--n", "1"], "--group --n"),
    ({}, ["--group", "so2", "--n", "1"], "--group --n"),
    ({"KLOOSTERCODES_GROUP": "o2"}, ["--n", "2"], "--group --n"),
], ids=["t-without-gl", "t-from-env", "n-with-gl", "variant-with-gl",
        "variant-without-n", "variant-from-env", "group-o2-with-n", "group-so4-with-n",
        "group-so2-with-n", "group-from-env-with-n"])
def test_gauss_refuses_a_flag_it_would_drop(env, argv, flags):
    # --t serves --group gl only, --n and --variant every group but gl,
    # --variant only with --n, and --group and --n each name the group alone;
    # a value from the environment counts as given
    code, out, err = _run_captured(["gauss", "--r", "2"] + argv, env)
    assert (code, out) == (2, "")
    assert all(flag in err for flag in flags.split()) and "Traceback" not in err


def test_verify_exit_zero(capsys):
    code, out, _ = run(capsys, "verify", "--r", "1", "--h-max", "6")
    assert code == 0
    assert "all moments match" in out


def test_verify_h_max_one_leaves_out_the_rank_four_code(capsys):
    # SO-(4,q) gives SK^{2h} for h <= h_max // 2: nothing at h_max = 1
    code, out, _ = run(capsys, "verify", "--r", "2", "--h-max", "1", "--format", "csv")
    assert code == 0
    assert [line.split(",")[:2] for line in out.splitlines()[1:]] == [["so2", "1"], ["o2", "1"]]


def test_consistency_failure_exits_one(capsys, monkeypatch):
    from kloostercodes.errors import ConsistencyError

    def broken(ctx, ops_limit):
        raise ConsistencyError("K table broken")

    monkeypatch.setattr(charsums, "_kloosterman_table", broken)
    code, out, err = run(capsys, "kloosterman", "--r", "1")
    assert (code, out) == (1, "")
    assert err == "consistency failure: K table broken\n"


def test_verify_mismatch_exits_one(capsys, monkeypatch):
    # one recursive value skewed at the report level, the direct side untouched
    from kloostercodes import moments

    real = moments.recursive_moments

    def skewed(ctx, gid, h_max, **kw):
        chain = real(ctx, gid, h_max, **kw)
        return chain[:-1] + [chain[-1] + 1]

    monkeypatch.setattr(moments, "recursive_moments", skewed)
    code, out, _ = run(capsys, "verify", "--r", "1", "--h-max", "4")
    assert code == 1
    assert "MISMATCH" in out


def test_verify_json_deterministic(capsys):
    first = run(capsys, "verify", "--r", "1", "--h-max", "4", "--format", "json")
    second = run(capsys, "verify", "--r", "1", "--h-max", "4", "--format", "json")
    assert first == second
    payload = json.loads(first[1])
    assert [rep["code"] for rep in payload] == ["so2", "o2", "so4"]
    assert all("elapsed_ms" not in rep for rep in payload)


def test_verify_timing_opt_in(capsys):
    code, out, _ = run(capsys, "verify", "--r", "1", "--h-max", "2", "--format", "json",
                       "--timing")
    assert code == 0
    assert all("elapsed_ms" in rep for rep in json.loads(out))


@pytest.mark.parametrize("fmt", ["text", "csv"])
def test_verify_timing_needs_json(capsys, fmt):
    # only the json reports carry elapsed_ms; elsewhere --timing would do nothing
    code, out, err = run(capsys, "verify", "--r", "2", "--h-max", "2", "--timing",
                         "--format", fmt)
    assert (code, out) == (2, "")
    assert "--timing" in err and "--format json" in err


def test_byte_identical_outputs(capsys):
    for argv in (
        ("weights", "--code", "so4", "--r", "1", "--max-j", "4", "--format", "json"),
        ("moments", "direct", "--r", "2", "--h", "6", "--format", "csv"),
        ("groups", "enumerate", "--r", "1", "--group", "o2", "--format", "json"),
    ):
        assert run(capsys, *argv) == run(capsys, *argv)


def test_env_overrides(capsys, monkeypatch):
    monkeypatch.setenv("KLOOSTERCODES_R", "2")
    monkeypatch.setenv("KLOOSTERCODES_FORMAT", "json")
    code, out, _ = run(capsys, "field")
    assert code == 0
    assert json.loads(out)["q"] == 9
    # explicit flags beat the environment
    code, out, _ = run(capsys, "field", "--r", "1")
    assert json.loads(out)["q"] == 3


@pytest.mark.parametrize("env, argv", [
    ({"KLOOSTERCODES_R": "abc"}, ["field"]),
    ({"KLOOSTERCODES_CODE": "zz"}, ["weights", "--r", "2"]),
    ({"KLOOSTERCODES_FORMAT": "xml"}, ["field"]),
    ({"KLOOSTERCODES_TIMING": "yes"}, ["verify", "--r", "1", "--format", "json"]),
], ids=["type", "choices", "format", "switch"])
def test_bad_env_value_is_a_usage_error(env, argv):
    # the value goes through the flag's own type and choices
    code, out, err = _run_captured(argv, env)
    assert (code, out) == (2, "")
    var = next(iter(env))
    assert "%s=%r" % (var, env[var]) in err and "Traceback" not in err


@pytest.mark.parametrize("env, argv, usage", [
    ({"KLOOSTERCODES_FORMAT": "xml"}, ["field"], "usage: kloostercodes field "),
    ({"KLOOSTERCODES_H": "-1"}, ["moments", "direct"], "usage: kloostercodes moments direct "),
], ids=["command", "mode"])
def test_bad_env_value_prints_its_commands_usage(env, argv, usage):
    # the refusal comes from the chosen command's own parser, as a bad flag's does
    code, _, err = _run_captured(argv, env)
    assert code == 2
    assert err.startswith(usage)


def test_env_value_is_checked_only_where_its_flag_is_used():
    # gl is a --group of gauss, not of groups; weights has no --group at all
    code, out, _ = _run_captured(["gauss", "--r", "1", "--t", "2"], {"KLOOSTERCODES_GROUP": "gl"})
    assert code == 0 and "K_GL(2, 3)" in out
    assert _run_captured(["field"], {"KLOOSTERCODES_CODE": "zz"})[0] == 0


def test_environment_is_read_at_every_call(monkeypatch):
    # one parser serves the whole process; the variable is looked up per call
    monkeypatch.delenv("KLOOSTERCODES_H_MAX", raising=False)
    argv = ["verify", "--r", "2", "--format", "json"]
    unset = _run_captured(argv, {})
    set_to_2 = _run_captured(argv, {"KLOOSTERCODES_H_MAX": "2"})
    unset_again = _run_captured(argv, {})
    assert unset[0] == 0 and unset == unset_again
    assert set_to_2 != unset
    assert set_to_2 == _run_captured(argv + ["--h-max", "2"], {})


def test_failed_calls_leave_the_next_call_unchanged():
    good = ["verify", "--r", "1", "--h-max", "3", "--format", "csv"]
    before = _run_captured(good, {})
    assert _run_captured(["verify", "--h-max", "5", "--format", "json", "--frobnicate"], {})[0] == 2
    assert _run_captured(["verify", "--h-max", "5", "--format", "json", "--help"], {})[0] == 0
    assert _run_captured(["verify", "--h-max", "5"], {"KLOOSTERCODES_FORMAT": "xml"})[0] == 2
    assert _run_captured(good, {}) == before


def test_only_the_first_call_builds_the_parser(capsys, monkeypatch):
    # each subcommand builds its own parser once: the top level, the common
    # flags and the subcommand itself
    cli._build_parser.cache_clear()
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert run(capsys, "verify", "--r", "1", "--h-max", "2")[0] == 0
    assert built == ["kloostercodes", None, "kloostercodes verify"]
    del built[:]
    assert run(capsys, "verify", "--r", "2", "--h-max", "3")[0] == 0
    assert built == []


USAGE = ("usage: kloostercodes [-h]\n"
         "                     {field,kloosterman,moments,weights,groups,gauss,verify}\n"
         "                     ...\n")
CHOICES = "(choose from 'field', 'kloosterman', 'moments', 'weights', 'groups', 'gauss', 'verify')"


@pytest.mark.parametrize("argv, err", [
    ([], "the following arguments are required: command"),
    (["verfy"], "argument command: invalid choice: 'verfy' " + CHOICES),
    (["--r", "2", "verify"], "argument command: invalid choice: '2' " + CHOICES),
    (["verify", "--bogus"], "unrecognized arguments: --bogus"),
    (["verify", "extra"], "unrecognized arguments: extra"),
])
def test_top_level_refusals_keep_their_usage_and_wording(capsys, monkeypatch, argv, err):
    # a one-subcommand parser still lists every command, and a refusal names
    # the argument `command`, not the list of choices
    monkeypatch.setenv("COLUMNS", "80")
    assert run(capsys, *argv) == (2, "", USAGE + "kloostercodes: error: " + err + "\n")


def test_top_level_help_lists_every_command(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = run(capsys, "-h")
    assert (code, err) == (0, "") and out.startswith(USAGE + "\nExact Kloosterman-sum moments")
    assert "positional arguments:\n  {field,kloosterman,moments,weights,groups,gauss,verify}\n" in out
    for name in cli._HANDLERS:
        assert "\n    %s " % name in out


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2 ** 100, 2 ** 100) | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=30)


@given(json_values)
@settings(max_examples=300, deadline=None)
@example(-0.0)
@example({"": [], "\x00\u00e9\U0001f600": {}, "b": [True, 2 ** 64, None, -0.0, "\n"]})
def test_dumps_matches_the_json_module(value):
    assert cli._dumps(value) == json.dumps(value, sort_keys=True, indent=2)


def test_timed_verify_json_is_the_json_modules_layout(capsys):
    code, out, _ = run(capsys, "verify", "--r", "2", "--h-max", "12", "--timing", "--format", "json")
    assert code == 0 and "elapsed_ms" in out
    assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"


def test_importing_the_cli_builds_no_parser():
    # a build at import would fall outside the time of the first call
    src = os.path.dirname(os.path.dirname(kloostercodes.__file__))
    path = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    code = "import kloostercodes.cli as c; print(c._build_parser.cache_info().currsize)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=60).stdout
    assert out == "0\n"


def test_timing_from_the_environment(monkeypatch):
    monkeypatch.delenv("KLOOSTERCODES_TIMING", raising=False)
    argv = ["verify", "--r", "1", "--h-max", "2", "--format", "json"]
    code, out, _ = _run_captured(argv, {"KLOOSTERCODES_TIMING": "1"})
    assert code == 0 and all("elapsed_ms" in rep for rep in json.loads(out))
    assert _run_captured(argv, {"KLOOSTERCODES_TIMING": "0"}) == _run_captured(argv, {})
    code, out, err = _run_captured(argv, {"KLOOSTERCODES_TIMING": "yes"})
    assert (code, out) == (2, "") and "--timing" in err
    code, out, err = _run_captured(argv[:-1] + ["text"], {"KLOOSTERCODES_TIMING": "1"})
    assert (code, out) == (2, "") and "--format json" in err


def test_help_available_everywhere(capsys):
    for argv in (["--help"], ["verify", "--help"], ["moments", "--help"],
                 ["moments", "direct", "--help"], ["groups", "--help"]):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert "usage" in out.lower()


def test_unknown_flag_is_usage_error(capsys):
    code, _, _ = run(capsys, "verify", "--frobnicate")
    assert code == 2


def _shapes(head, key, records, fields, rows, lines):
    """The json, csv and text stdout of one document, built here: json by the
    json module, csv and text line by line."""
    doc = dict(head, **{key: records})
    return {"json": json.dumps(doc, sort_keys=True, indent=2) + "\n",
            "csv": "".join(",".join(map(str, row)) + "\n" for row in [fields] + rows),
            "text": "".join(line + "\n" for line in lines)}


@pytest.mark.parametrize("r", [1, 2])
def test_verify_past_the_golden_sizes(capsys, r):
    # h_max = 80 at r = 1, 2, where golden_cli.json stops at 10
    ctx = field_create(r)
    reports = moments.verify_report(ctx, 80)
    docs = [{"q": ctx.q, "r": r, "code": rep.code,
             "rows": [{"h": row.h, "direct": str(row.direct), "recursive": str(row.recursive),
                       "match": row.match} for row in rep.rows]} for rep in reports]
    rows = [(rep.code, row.h, row.direct, row.recursive, row.match)
            for rep in reports for row in rep.rows]
    assert all(row[-1] for row in rows)
    want = {"json": json.dumps(docs, sort_keys=True, indent=2) + "\n",
            "csv": "".join(",".join(map(str, row)) + "\n"
                           for row in [("code", "h", "direct", "recursive", "match")] + rows),
            "text": "".join("%s h=%d direct=%d recursive=%d ok\n" % row[:4] for row in rows)
            + "verified: all moments match\n"}
    argv = ["verify", "--r", str(r), "--h-max", "80", "--format"]
    for fmt, out in want.items():
        assert run(capsys, *argv, fmt) == (0, out, "")
    code, out, err = run(capsys, *argv, "json", "--timing")
    timed = json.loads(out)
    assert (code, err) == (0, "") and all(type(doc["elapsed_ms"]) is float for doc in timed)
    for doc, found in zip(docs, timed):
        doc["elapsed_ms"] = found["elapsed_ms"]
    assert out == json.dumps(docs, sort_keys=True, indent=2) + "\n"


def test_moments_and_weights_past_the_golden_sizes(capsys):
    ctx = field_create(2)
    direct = [sk_moment(ctx, h) for h in range(201)]
    so4 = [(2 * h, sk_moment(ctx, 2 * h)) for h in range(41)]
    prefix = weight_prefix(GroupId.SO2, ctx, 40)
    jobs = {
        "moments direct --r 2 --h 200": _shapes(
            {"q": 9, "r": 2, "source": "direct"}, "rows",
            [{"h": h, "sk": str(v)} for h, v in enumerate(direct)],
            ("h", "sk"), list(enumerate(direct)), ["SK^%d = %d" % hv for hv in enumerate(direct)]),
        "moments recursive --code so4 --r 2 --h 40": _shapes(
            {"q": 9, "r": 2, "code": "so4"}, "rows", [{"h": h, "sk": str(v)} for h, v in so4],
            ("h", "sk"), so4, ["SK^%d = %d" % hv for hv in so4]),
        "weights --code so2 --r 2 --max-j 40": _shapes(
            {"q": 9, "r": 2, "code": "so2", "max_j": 40}, "counts",
            {str(j): str(c) for j, c in enumerate(prefix)},
            ("j", "count"), list(enumerate(prefix)), ["C_%d = %d" % jc for jc in enumerate(prefix)]),
    }
    for command, want in jobs.items():
        for fmt, out in want.items():
            assert run(capsys, *command.split(), "--format", fmt) == (0, out, "")


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_each_format_is_shaped_alone(capsys, monkeypatch, fmt):
    # text and csv never reach _dumps, and no format runs another's shaper
    def refused(*args):
        raise AssertionError("shaped a format that was not asked for")

    for name in {"json", "csv", "text"} - {fmt}:
        monkeypatch.setattr(cli, "_" + name, refused)
    if fmt != "json":
        monkeypatch.setattr(cli, "_dumps", refused)
    for command in sorted(GOLDEN):
        if command.endswith("--format " + fmt):
            assert run(capsys, *command.split()) == (0, GOLDEN[command], "")
