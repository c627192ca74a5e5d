"""CLI behaviour of the `analyze` layer: exit codes, baseline, JSON."""

import json
import textwrap

from repro.verify.__main__ import LAYER_CODES, STALE_BASELINE_CODE, main
from repro.verify.analyze import Baseline, analyze

_BUGGY = textwrap.dedent(
    """
    def worker(ctx):
        g = ctx.compute(100.0)
        yield from ctx.timeout(1.0)
    """
)


def _buggy_file(tmp_path):
    p = tmp_path / "buggy.py"
    p.write_text(_BUGGY)
    return p


def test_analyze_clean_tree_exits_zero(capsys):
    assert main(["analyze"]) == 0
    captured = capsys.readouterr()
    assert "0 new finding(s)" in captured.out
    assert "[verify] analyze: PASS" in captured.err


def test_analyze_json_stdout_is_pure_json(capsys):
    assert main(["analyze", "--format", "json"]) == 0
    captured = capsys.readouterr()
    report = json.loads(captured.out)  # no trailing summary line on stdout
    assert report["counts"]["new"] == 0
    assert report["counts"]["stale_suppressions"] == 0
    assert "[verify] analyze: PASS" in captured.err


def test_analyze_new_findings_exit_code(tmp_path, capsys):
    p = _buggy_file(tmp_path)
    assert main(["analyze", "--paths", str(p)]) == LAYER_CODES["analyze"]
    captured = capsys.readouterr()
    assert "undriven-generator" in captured.out
    assert "[verify] analyze: FAIL" in captured.err


def test_hygiene_finding_exits_with_the_analyze_code(tmp_path, capsys):
    p = tmp_path / "clocky.py"
    p.write_text("import time\nt = time.time()\n")
    assert main(["analyze", "--paths", str(p)]) == LAYER_CODES["analyze"]
    assert "[wall-clock]" in capsys.readouterr().out


def test_analyze_matching_baseline_passes(tmp_path):
    p = _buggy_file(tmp_path)
    keys = [f.key for f in analyze(paths=[p]).findings]
    assert keys
    bpath = tmp_path / "baseline.json"
    Baseline(suppressions=keys).save(bpath)
    assert main(["analyze", "--paths", str(p), "--baseline", str(bpath)]) == 0


def test_analyze_stale_baseline_distinct_exit_code(tmp_path, capsys):
    clean = tmp_path / "clean.py"
    clean.write_text("x = 1\n")
    bpath = tmp_path / "baseline.json"
    Baseline(suppressions=[("undriven-generator", "gone.py", "old")]).save(bpath)
    code = main(["analyze", "--paths", str(clean), "--baseline", str(bpath)])
    assert code == STALE_BASELINE_CODE
    captured = capsys.readouterr()
    assert "stale-baseline" in captured.out
    assert "[verify] analyze: FAIL" in captured.err


def test_analyze_update_baseline_roundtrip(tmp_path, capsys):
    p = _buggy_file(tmp_path)
    bpath = tmp_path / "baseline.json"
    args = ["analyze", "--paths", str(p), "--baseline", str(bpath)]
    assert main(args + ["--update-baseline"]) == 0
    saved = json.loads(bpath.read_text())
    assert len(saved["suppressions"]) == 1
    capsys.readouterr()
    # the refreshed baseline makes the same subset pass
    assert main(args) == 0


def test_layer_codes_are_distinct_and_documented():
    assert LAYER_CODES == {"model": 3, "smoke": 4, "trace": 4, "analyze": 5}
    assert STALE_BASELINE_CODE == 6
    assert STALE_BASELINE_CODE not in LAYER_CODES.values()
