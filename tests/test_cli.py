import pytest

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
