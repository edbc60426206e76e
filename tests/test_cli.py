import json
import os
import pathlib
import subprocess
import sys

import pytest

import flagiso
from flagiso import cli


@pytest.mark.parametrize(
    "argv",
    [
        ["dim", "--type", "A", "--ambient", "4", "--dims", "1,x"],
        ["poincare", "--type", "C", "--ambient", "6", "--dims", "1,²"],
        ["points", "--type", "B", "--ambient", "5", "--dims", "x", "--q", "3"],
        ["normalize", "seq[²]"],
        ["normalize", "seq[٣]"],
        ["decide", "symp: half=seq[1]; middle=²", "gen: seq[1,inf]"],
        ["dim", "--type", "A", "--ambient", "4", "--dims", "٣"],
        ["decide-finite", "A:٤:1", "A:4:3"],
        ["witness-bd", "--n", "0"],
        ["witness-bd", "--n", "1"],
        ["witness-bd", "--n", "1", "--all"],
        ["witness-bd", "--n", "2", "--prime", "0"],
        ["selftest", "--only", "9", "--skip-lockfile"],
        ["selftest", "--only", "1,0", "--skip-lockfile"],
        # more digits than int() converts (sys.get_int_max_str_digits)
        ["normalize", "seq[%s]" % ("1" * 5000)],
        ["decide", "orth: half=seq[1]; middle=%s" % ("1" * 5000), "gen: seq[1,inf]"],
        ["decide-finite", "A:%s:1" % ("1" * 5000), "A:4:3"],
        ["dim", "--type", "A", "--ambient", "4", "--dims", "1," + "1" * 5000],
    ],
)
def test_bad_input_exits_one_without_traceback(capsys, argv):
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["dim", "--type", "A", "--ambient", "٣", "--dims", "1"],
        ["witness-bd", "--n", "x"],
        ["selftest", "--only", "x"],
    ],
)
def test_bad_option_value_exits_one_without_traceback(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert "error:" in err
    assert "Traceback" not in err


def test_rank_cap_exits_two_with_message(monkeypatch, capsys):
    monkeypatch.setenv("FLAGISO_MAX_RANK", "3")
    assert cli.main(["dim", "--type", "A", "--ambient", "8", "--dims", "1"]) == 2
    err = capsys.readouterr().err
    assert "rank 7 exceeds the rank cap 3" in err
    assert "enumeration" not in err


def test_counting_commands_accept_valid_dims(capsys):
    assert cli.main(["dim", "--type", "a", "--ambient", "4", "--dims", "1, 3"]) == 0
    assert capsys.readouterr().out == "5\n"


@pytest.mark.parametrize("n, lifts", [(2, 5), (3, 23)])
def test_witness_bd_sampled_counts_distinct_sources(capsys, n, lifts):
    # 25 seeded draws over GF(5) repeat sources; each distinct one has its own lift
    assert cli.main(["witness-bd", "--n", str(n), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] and payload["distinct_images"] == lifts
    assert payload["transcript"][0] == {
        "check": "lagrangian-lift",
        "detail": f"{lifts} distinct Lagrangians from 25 sources ({lifts} distinct)",
        "pass": True,
    }


@pytest.mark.parametrize("n, points", [(2, 3), (3, 15)])
def test_witness_bd_all_output_unchanged(capsys, n, points):
    assert cli.main(["witness-bd", "--n", str(n), "--all"]) == 0
    assert capsys.readouterr().out == (
        f"n={n} over GF(2): all {points} isotropic subspaces; {points} distinct "
        f"Lagrangian lifts; exhaustion square commutes on {points} points\n"
    )
    assert cli.main(["witness-bd", "--n", str(n), "--all", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["transcript"] == [
        {
            "check": "lagrangian-lift",
            "detail": f"{points} distinct Lagrangians from {points} sources",
            "pass": True,
        },
        {
            "check": "exhaustion-square",
            "detail": f"{points} squares checked, 0 failures",
            "pass": True,
        },
    ]


@pytest.mark.parametrize(
    "argv",
    [
        ["selftest", "--only", "7", "--skip-lockfile"],
        ["witness-bd", "--n", "3", "--all", "--json"],
    ],
)
def test_closed_stdout_exits_one_without_traceback(argv):
    # stdout is a pipe whose only reader is closed before the command starts
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = str(pathlib.Path(flagiso.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "flagiso", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            text=True,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == ""
