import json
import time
from pathlib import Path

import pytest

from skeinlab import cli, jaeger

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
    # the flag gives exactly what a declared framing header gives
    declared = Path(core_file).with_name("core-radial.mw")
    declared.write_text("surface annulus\nframing radial\nprofile ^g\n",
                        encoding="utf-8")
    assert cli.main(["coproduct", str(declared)]) == 0
    assert capsys.readouterr().out == out


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


def test_verify_multistrand_annulus_regression(capsys):
    # a plane unknot, a radial `braid 2: 1` and a blackboard `braid 3: 1 2`
    # annulus word: 3P + P^2 + 2F + 2 checks with P = 1 and F = 2 framings;
    # `mult` once took 15 s or more on the radial entry alone
    t0 = time.perf_counter()
    rc = cli.main(["verify", "all", "--corpus",
                   str(REGRESSIONS / "annulus-multistrand")])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    assert rc == 0
    assert out.splitlines()[-1] == "ok: 10 checks, 0 failures"
    assert elapsed < 5.0  # about 0.05 s on a 2-vCPU machine


def test_jaeger_budget_on_deep_unlink(capsys):
    # 600 split circles admit at least 2^600 labellings: refused up front
    t0 = time.perf_counter()
    rc = cli.main(["jaeger", str(REGRESSIONS / "unlink-600-ccw.mw")])
    elapsed = time.perf_counter() - t0
    err = capsys.readouterr().err
    assert rc == 1 and "Traceback" not in err
    assert err.count("\n") == 1
    assert err.startswith("skeinlab: error: jaeger.state_sum exceeded its "
                          f"budget of {jaeger.DEFAULT_BUDGET} labellings")
    assert elapsed < 3.0  # about 0.02 s on a 2-vCPU machine
    assert len(err.encode()) < 300 and "1200 events" in err


def test_verify_coassoc_budget_on_nine_circle_unlink(tmp_path, capsys):
    # 3^9 single-label colourings exceed the state-sum budget at n = 3, so
    # `verify coassoc` refuses the unlink; `verify jaeger` (2^9) answers it
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "unlink-9.mw").write_text(
        "surface plane\n" + "cup 1 >\ncap 1 <\n" * 9, encoding="utf-8")
    t0 = time.perf_counter()
    rc = cli.main(["verify", "coassoc", "--corpus", str(corpus)])
    elapsed = time.perf_counter() - t0
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == "" and "Traceback" not in captured.err
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("skeinlab: error: jaeger.state_sum exceeded "
                                   f"its budget of {jaeger.DEFAULT_BUDGET} labellings")
    assert elapsed < 1.0  # refused before enumerating
    assert cli.main(["verify", "jaeger", "--corpus", str(corpus)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "ok: 1 checks, 0 failures"


def _one_line_error(capsys, argv) -> str:
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("skeinlab: error: ")
    return captured.err


def test_verify_missing_corpus_is_one_line(tmp_path, capsys):
    missing = str(tmp_path / "nonexistent")
    err = _one_line_error(capsys, ["verify", "all", "--corpus", missing])
    assert f"cannot read {missing}: " in err


def test_undecodable_input_is_one_line(tmp_path, capsys):
    p = tmp_path / "latin1.mw"
    p.write_bytes(b"surface plane\n# caf\xe9\ncup 1 >\ncap 1 <\n")
    err = _one_line_error(capsys, ["eval", str(p)])
    assert f"cannot read {p}: " in err


def test_undecodable_corpus_file_is_one_line(tmp_path, capsys):
    (tmp_path / "a.mw").write_text("cup 1 >\ncap 1 <\n", encoding="utf-8")
    (tmp_path / "b.mw").write_bytes(b"\xff\xfe")
    err = _one_line_error(capsys, ["verify", "jaeger", "--corpus", str(tmp_path)])
    assert f"cannot read {tmp_path / 'b.mw'}: " in err


def test_corpus_parse_error_names_the_file(tmp_path, capsys):
    (tmp_path / "bad.mw").write_text("cap 1 <\n", encoding="utf-8")
    err = _one_line_error(capsys, ["verify", "jaeger", "--corpus", str(tmp_path)])
    assert f"{tmp_path / 'bad.mw'}: " in err and "line 1" in err


def test_specialize_is_eval_with_t(tmp_path, trefoil_file, capsys):
    for t in ("1", "2", "-3"):
        assert cli.main(["specialize", trefoil_file, "--t", t]) == 0
        specialized = capsys.readouterr().out
        assert cli.main(["eval", trefoil_file, "--t", t]) == 0
        assert capsys.readouterr().out == specialized
    # a two-colour Hopf link: green over red, then red over green
    hopf = tmp_path / "hopf-gr.mw"
    hopf.write_text("cup 1 > g\ncup 3 > r\nx 2 o\nx 2 o\ncap 3 <\ncap 1 <\n",
                    encoding="utf-8")
    for command in ("specialize", "eval"):
        assert cli.main([command, str(hopf), "--t", "1,2"]) == 0
        assert capsys.readouterr().out == "q^-1 + q\n"
