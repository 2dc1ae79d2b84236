import json
import time
from pathlib import Path

import pytest

from skeinlab import cli

REGRESSIONS = Path(__file__).parent / "regressions"


@pytest.fixture()
def trefoil_file(tmp_path):
    p = tmp_path / "trefoil.mw"
    p.write_text("surface plane\nbraid 2: 1 1 1 ; close\n", encoding="utf-8")
    return str(p)


@pytest.fixture()
def core_file(tmp_path):
    p = tmp_path / "core.mw"
    p.write_text("surface annulus\nprofile ^g\n", encoding="utf-8")
    return str(p)


def test_eval_pretty(trefoil_file, capsys):
    assert cli.main(["eval", trefoil_file]) == 0
    out = capsys.readouterr().out
    assert "q^2t" in out and "/ (q - q^-1)" in out


def test_eval_specialized(trefoil_file, capsys):
    assert cli.main(["eval", trefoil_file, "--t", "1"]) == 0
    assert capsys.readouterr().out.strip() == "q^3"


def test_specialize_command(trefoil_file, capsys):
    assert cli.main(["specialize", trefoil_file, "--t", "2"]) == 0
    assert capsys.readouterr().out.strip() == "-q^-3 + q + q^3 + q^5"


def test_jaeger_json_stdin(monkeypatch, capsys):
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO("cup 1 >\ncap 1 <\n"))
    assert cli.main(["jaeger", "-", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["arity"] == 2 and data["den_pow"] == 1


def test_iterate_plane(trefoil_file, capsys):
    assert cli.main(["iterate", trefoil_file, "--slots", "3"]) == 0
    assert "q^2t1" in capsys.readouterr().out


def test_coproduct_requires_framing_on_annulus(core_file, capsys):
    assert cli.main(["coproduct", core_file]) == 1
    err = capsys.readouterr().err
    assert "framing" in err
    assert cli.main(["coproduct", core_file, "--framing", "radial"]) == 0
    out = capsys.readouterr().out
    assert "1_∅" in out


def test_radial_flag_rejected_on_plane(trefoil_file, capsys):
    assert cli.main(["eval", trefoil_file, "--framing", "radial"]) == 1
    assert "radial" in capsys.readouterr().err


def test_malformed_input_diagnostics(tmp_path, capsys):
    p = tmp_path / "bad.mw"
    p.write_text("cap 1 <\n", encoding="utf-8")
    assert cli.main(["eval", str(p)]) == 1
    assert "line 1" in capsys.readouterr().err
    assert cli.main(["eval", str(tmp_path / "missing.mw")]) == 1
    assert "cannot read" in capsys.readouterr().err


def test_bad_t_flag(trefoil_file, capsys):
    assert cli.main(["eval", trefoil_file, "--t", "x"]) == 1
    assert "--t expects integers" in capsys.readouterr().err


def test_verify_builtin_exit_zero(capsys):
    assert cli.main(["verify", "framing-remark", "--deterministic"]) == 0
    out = capsys.readouterr().out
    assert "ok:" in out and "0 failures" in out


def test_verify_corpus_path(tmp_path, capsys):
    (tmp_path / "a.mw").write_text("cup 1 >\ncap 1 <\n", encoding="utf-8")
    (tmp_path / "b.mw").write_text("braid 2: 1 ; close\n", encoding="utf-8")
    assert cli.main(["verify", "jaeger", "--corpus", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "pass  jaeger  a" in out and "pass  jaeger  b" in out


def test_deterministic_output_stable(trefoil_file, capsys):
    cli.main(["jaeger", trefoil_file, "--deterministic"])
    first = capsys.readouterr().out
    cli.main(["jaeger", trefoil_file, "--deterministic"])
    assert capsys.readouterr().out == first


def test_eval_multicoloured_input(tmp_path, capsys):
    p = tmp_path / "two.mw"
    p.write_text("cup 1 > g\ncap 1 <\ncup 1 > r\ncap 1 <\n", encoding="utf-8")
    assert cli.main(["eval", str(p), "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["arity"] == 2


def test_verification_failure_exits_two(capsys, monkeypatch):
    from skeinlab import coproduct

    def failing(identity, entries, memo=None):
        report = coproduct.Report(identity)
        report.record("rigged", False, "witness")
        return report

    monkeypatch.setattr("skeinlab.cli.coproduct.verify", failing)
    assert cli.main(["verify", "counit", "--deterministic"]) == 2
    out = capsys.readouterr().out
    assert "FAIL" in out and "witness" in out


def test_deep_unlink_answers_or_diagnoses(capsys):
    # 600 split circles, 1200 events: the recursive box walk once raised a
    # raw RecursionError out of main
    path = str(REGRESSIONS / "unlink-600-ccw.mw")
    t0 = time.perf_counter()
    rc = cli.main(["coproduct", path, "--format", "json"])
    err = capsys.readouterr().err
    assert rc in (0, 1) and "Traceback" not in err
    if rc == 1:
        assert err.count("\n") == 1
        assert err.startswith("skeinlab: error: coproduct ")
        assert "1200-event" in err
    assert cli.main(["eval", path, "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["arity"] == 1 and data["den_pow"] == 600
    elapsed = time.perf_counter() - t0
    assert elapsed < 3.0  # about 0.4 s on a 2-vCPU machine
