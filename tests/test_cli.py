import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

import flagiso
from flagiso import cli
from flagiso import selftest as st
from flagiso import witness as W
from flagiso.descriptors import (
    general_flags,
    orthogonal_flags,
    render_descriptor,
    symplectic_flags,
    validate,
)
from flagiso.linalg import QQ
from flagiso.orders import INF, render_order

from strategies import order_text, orders


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
        ["witness-bd", "--n", "3", "--samples", "0"],
        ["witness-bd", "--n", "3", "--samples", "-3"],
        ["selftest", "--only", "9"],
        ["selftest", "--only", "1,0"],
        # more digits than int() converts (sys.get_int_max_str_digits)
        ["normalize", "seq[%s]" % ("1" * 5000)],
        ["decide", "orth: half=seq[1]; middle=%s" % ("1" * 5000), "gen: seq[1,inf]"],
        ["decide-finite", "A:%s:1" % ("1" * 5000), "A:4:3"],
        ["dim", "--type", "A", "--ambient", "4", "--dims", "1," + "1" * 5000],
        # a key given twice (the grammar has one half= and one middle=)
        ["dual", "orth: half=seq[1]; half=seq[2]; middle=inf"],
        ["decide", "symp: half=omega(1); middle=inf; middle=2", "symp: half=omega(1); middle=2"],
    ],
)
def test_bad_input_exits_one_without_traceback(capsys, argv):
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, column",
    [
        # the column just past `bogus`, counted in the text as typed
        (["decide", "gen: seq[1] + bogus(2)", "gen: omega(1)"], 20),
        (["decide", "symp: half=seq[1] + bogus(2); middle=inf", "gen: omega(1)"], 26),
        (["normalize", "seq[1] + bogus(2)"], 15),
    ],
)
def test_order_error_column_counts_in_the_text_as_typed(capsys, argv, column):
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err == f"error: unknown atom 'bogus' (column {column})\n"


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


def test_rank_cap_exits_two_with_message(capsys):
    assert cli.main(["dim", "--type", "A", "--ambient", "97", "--dims", "1"]) == 0
    assert capsys.readouterr().out == "96\n"
    assert cli.main(["dim", "--type", "A", "--ambient", "98", "--dims", "1"]) == 2
    err = capsys.readouterr().err
    assert err == "resource bound: rank 97 exceeds the rank cap 96\n"


def test_prime_above_the_primality_bound_exits_two(capsys):
    # 2^89 - 1 is prime, but above the bound where the primality test decides
    assert cli.main(["witness-rebase", "--prime", "618970019642690137449562111"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("resource bound: ")
    assert "3317044064679887385961981" in err
    assert "Traceback" not in err


def test_witness_rebase_at_a_61_bit_prime_finishes(capsys):
    # an odd orthogonal instance: its self-paired vector needs a square root
    # mod 2^61 - 1, which a scan over the field could not take
    argv = ["witness-rebase", "--prime", "2305843009213693951", "--isotropic", "--seed", "4"]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out.startswith("rebase automorphism constructed and verified")


def test_witness_rebase_failure_exits_one_with_the_detail(monkeypatch, capsys):
    from flagiso import witness as W

    def refuse(*args):
        raise W.WitnessError("no automorphism here")

    monkeypatch.setattr(W, "rebase_automorphism", refuse)
    assert cli.main(["witness-rebase", "--seed", "1"]) == 1
    out, err = capsys.readouterr()
    assert out == "rebase failed: no automorphism here\n" and err == ""
    assert cli.main(["witness-rebase", "--seed", "1", "--isotropic", "--json"]) == 1
    out, err = capsys.readouterr()
    payload = json.loads(out)
    assert err == "" and payload["ok"] is False and payload["automorphism"] is None
    assert payload["transcript"] == [
        {
            "check": "construction-and-verification",
            "detail": "no automorphism here",
            "pass": False,
        }
    ]


def test_witness_bd_rank_cap_exits_two_before_building(capsys):
    # the pair at n lives in D_n; a huge n must not reach the 2n x 2n identity
    assert cli.main(["witness-bd", "--n", "97"]) == 2
    err = capsys.readouterr().err
    assert "rank 97 exceeds the rank cap 96" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, named",
    [
        (["--n", "3", "--prime", "7919"], "there are 496667651040 isotropic 2-subspaces"),
        (["--n", "40"], "there are about 10^235 isotropic 39-subspaces"),
        # 99,992 sources, but the first row alone has 99991^2 candidates
        (["--n", "2", "--prime", "99991"], "from 9998200081 candidate first rows"),
    ],
)
def test_witness_bd_all_above_the_cap_exits_two_before_enumerating(capsys, argv, named):
    assert cli.main(["witness-bd", "--all", *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("resource bound: ") and named in err
    assert err.endswith("the enumeration cap is 100000\n")


def test_counting_commands_accept_valid_dims(capsys):
    assert cli.main(["dim", "--type", "a", "--ambient", "4", "--dims", "1, 3"]) == 0
    assert capsys.readouterr().out == "5\n"


@pytest.mark.parametrize(
    "left, right, reason, detail",
    [
        (
            "A:4:2",
            "D:6:1",
            "KleinCorrespondence",
            "Klein correspondence: the quadric in six variables is Gr(2, 4)",
        ),
        ("D:8:1", "D:8:4", "D4Triality", "triality of D_4 permutes its vector and two spinor nodes"),
        ("B:7:3", "D:8:1", "D4Triality", "triality of D_4 permutes its vector and two spinor nodes"),
        # both sides pass through D_3 = A_3; only the B side through B_2 -> D_3
        (
            "B:5:2",
            "D:6:3",
            "ExceptionalBD",
            "maximal orthogonal grassmannians in ambient dimensions 5 and 6",
        ),
    ],
    ids=["klein", "triality", "bd-then-triality", "bd-through-klein"],
)
def test_decide_finite_names_the_identification(capsys, left, right, reason, detail):
    for argv in (["decide-finite", left, right], ["decide-finite", right, left]):
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == f"Isomorphic ({reason}): {detail}\n"
        assert cli.main([*argv, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert (payload["verdict"], payload["reason"], payload["detail"]) == (
            "Isomorphic",
            reason,
            detail,
        )


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


def test_selftest_checks_pinned_values_without_writing(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["selftest", "--only", "1"]) == 0
    assert list(tmp_path.iterdir()) == []
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2] == (
        "[PASS] derived-value lockfile: 15 derived values stable against the pinned values"
    )


def test_full_selftest_passes_every_criterion(tmp_path, monkeypatch, capsys):
    # the other selftest tests run criteria 1 and 7 alone; this one runs the
    # bodies of all seven, with the lockfile
    monkeypatch.chdir(tmp_path)
    assert cli.main(["selftest", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [c["passed"] for c in payload["criteria"]] == [True] * 7, payload
    assert payload["lockfile"]["ok"] and payload["ok"]
    assert list(tmp_path.iterdir()) == []


def test_selftest_fails_on_a_drifted_value(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    drifted = dict(st.derived_values(), **{"poincare:D:4:2": "1 + 2*q"})
    monkeypatch.setattr(st, "derived_values", lambda: drifted)
    assert cli.main(["selftest", "--only", "1", "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["lockfile"] == {
        "ok": False,
        "detail": "derived values drifted: poincare:D:4:2",
    }
    assert not payload["ok"] and payload["criteria"][0]["passed"]
    assert list(tmp_path.iterdir()) == []


def _child_env():
    """The environment with this checkout's ``src`` first on ``PYTHONPATH``."""
    src = str(pathlib.Path(flagiso.__file__).parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


@pytest.mark.parametrize(
    "argv",
    [
        ["selftest", "--only", "7"],
        ["witness-bd", "--n", "3", "--all", "--json"],
    ],
)
def test_closed_stdout_exits_one_without_traceback(argv):
    # stdout is a pipe whose only reader is closed before the command starts
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "flagiso", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=_child_env(),
            text=True,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == ""


# The child lowers only its own soft address-space limit, then runs a command
# whose truncation needs far more than that.
_OUT_OF_MEMORY = """
import resource, sys
from flagiso import cli
_, hard = resource.getrlimit(resource.RLIMIT_AS)
limit = 600 * 2**20
if hard != resource.RLIM_INFINITY:
    limit = min(limit, hard)
resource.setrlimit(resource.RLIMIT_AS, (limit, hard))
sys.exit(cli.main(["truncate", "gen: omega(1)", "--width", "100000000"]))
"""


def test_out_of_memory_exits_two_without_traceback():
    pytest.importorskip("resource")
    proc = subprocess.run(
        [sys.executable, "-c", _OUT_OF_MEMORY],
        capture_output=True,
        env=_child_env(),
        text=True,
        timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("resource bound:")
    assert "Traceback" not in proc.stderr


# ---------------------------------------------------------------------------
# argv fuzz: every subcommand but selftest, with drawn option values.  Ranks,
# widths, --n and the primes stay small, so that no drawn command runs long.


_MALFORMED = hs.sampled_from(["", "x", "-1", "0", "٣", " 2 ", "1" * 5000])


def _integer(lo, hi):
    """In range four times in five, else malformed."""
    return hs.integers(0, 4).flatmap(lambda k: hs.integers(lo, hi).map(str) if k else _MALFORMED)


def _dims(top):
    """Increasing dimensions four times in five, else entries as drawn."""
    increasing = hs.lists(hs.integers(1, top), unique=True, min_size=1, max_size=3).map(sorted)
    anyhow = hs.lists(_integer(0, top), max_size=3)
    return hs.integers(0, 4).flatmap(lambda k: increasing if k else anyhow).map(
        lambda dims: ",".join(map(str, dims))
    )


_order_text = hs.one_of(orders.map(render_order), order_text)
_middles = hs.one_of(hs.integers(0, 3), hs.just(INF))
_descriptor_text = hs.one_of(
    hs.one_of(
        orders.map(general_flags),
        hs.builds(orthogonal_flags, orders, _middles),
        hs.builds(symplectic_flags, orders, _middles),
    )
    .filter(lambda d: not validate(d))
    .map(render_descriptor),
    hs.builds(
        "{}: half={}; middle={}".format,
        hs.sampled_from(["orth", "symp", "gen", "bogus"]),
        _order_text,
        hs.sampled_from(["empty", "inf", "0", "1", "2", "x", "²", ""]),
    ),
    _order_text.map("gen: {}".format),
    hs.text(max_size=30),
)
_variety_text = hs.one_of(
    hs.sampled_from(["A:4:1,3", "A:6:2", "A:6:4", "B:5:1,2", "C:6:1,3", "D:8:3,4", "D:6:1"]),
    hs.builds("{}:{}:{}".format, hs.sampled_from("ABCDx"), _integer(2, 8), _dims(7)),
    hs.text(max_size=12),
)
_variety_flags = {
    "--type": hs.sampled_from(["A", "B", "C", "D", "a", "x"]),
    "--ambient": _integer(2, 4),
    "--dims": _dims(3),
}


@hs.composite
def _options(draw, options):
    """Each option given 19 times in 20; None marks a flag without value."""
    argv = []
    for name, values in options.items():
        if draw(hs.integers(0, 19)):
            argv += [name] if values is None else [name, draw(values)]
    return argv


_ARGS = {
    "decide": hs.lists(_descriptor_text, min_size=2, max_size=2),
    "decide-finite": hs.lists(_variety_text, min_size=2, max_size=2),
    "normalize": hs.lists(_order_text, min_size=1, max_size=1),
    "dual": hs.lists(_descriptor_text, min_size=1, max_size=1),
    "pic-rank": hs.lists(_descriptor_text, min_size=1, max_size=1),
    "truncate": hs.tuples(_descriptor_text, _options({"--width": _integer(0, 6)})).map(
        lambda t: [t[0], *t[1]]
    ),
    "points": _options({**_variety_flags, "--q": _integer(0, 5), "--brute-force": None}),
    "poincare": _options(_variety_flags),
    "dim": _options(_variety_flags),
    "witness-rebase": _options(
        {"--seed": _integer(0, 9), "--prime": _integer(0, 7), "--isotropic": None}
    ),
    "witness-bd": _options(
        {
            "--n": _integer(1, 3),
            "--prime": _integer(2, 3),
            "--all": None,
            "--samples": _integer(0, 5),
            "--seed": _integer(0, 9),
        }
    ),
}
_argv = hs.sampled_from(sorted(_ARGS)).flatmap(
    lambda command: hs.tuples(_ARGS[command], hs.booleans()).map(
        lambda t: [command, *t[0], *(["--json"] if t[1] else [])]
    )
)


@settings(max_examples=300)
@given(_argv)
def test_argv_fuzz_exits_zero_one_or_two_without_traceback(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue()


def test_point_json_round():
    p = W.flag_point(QQ, 3, [((Fraction(1, 2), 0, 1),)])
    obj = cli.point_to_json(p)
    assert obj["ambient_dim"] == 3
    assert obj["subspaces"][0]["entries"][0] == ["1", "0", "2"]
