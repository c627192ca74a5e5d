"""CLI entry points of the verification subsystem."""

from repro.verify.__main__ import main


def test_cli_model_small(capsys):
    assert main(["model", "--ranks", "2"]) == 0
    out = capsys.readouterr().out
    assert "2pc n=2" in out and "token-ring n=2" in out
    assert "PASS" in out


def test_cli_smoke_battery(capsys):
    assert main(["smoke"]) == 0
    out = capsys.readouterr().out
    # the five measured schemes plus the two coverage extras, all audited
    for name in ("coord_nb", "indep", "coord_nbm", "indep_m", "coord_nbms"):
        assert name in out
