import argparse
import json
import time
from collections import Counter
from pathlib import Path

import pytest

from skeinlab import cli, coproduct, diagrams, engine, jaeger, scalars, textio
from skeinlab.diagrams import Word

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


@pytest.mark.parametrize("identity", ["mult", "framing-remark"])
def test_verify_corpus_requires_framing_on_annulus(tmp_path, capsys, identity):
    # a corpus has no --framing: its annulus files must declare one
    core = tmp_path / "core.mw"
    core.write_text("surface annulus\nprofile ^g\n", encoding="utf-8")
    err = _one_line_error(capsys, ["verify", identity, "--corpus", str(tmp_path)])
    assert f"{core}: " in err and "framing" in err
    core.write_text("surface annulus\nframing radial\nprofile ^g\n", encoding="utf-8")
    assert cli.main(["verify", identity, "--corpus", str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines()[-1].endswith(" 0 failures")


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


def test_verify_all_resolves_each_word_once(capsys, monkeypatch):
    """Every suite of one `verify` call shares one memo, so no reduced
    word is resolved twice."""
    resolve = engine._resolve
    misses = Counter()

    def counted(word, memo, state):
        key = diagrams.word_key(word)
        if key not in memo:
            misses[key] += 1
        return resolve(word, memo, state)
    monkeypatch.setattr(engine, "_resolve", counted)
    assert cli.main(["verify", "all", "--corpus", "builtin"]) == 0
    assert "0 failures" in capsys.readouterr().out
    assert misses and max(misses.values()) == 1


def test_verify_corpus_path(tmp_path, capsys):
    (tmp_path / "a.mw").write_text("cup 1 >\ncap 1 <\n", encoding="utf-8")
    (tmp_path / "b.mw").write_text("braid 2: 1 ; close\n", encoding="utf-8")
    assert cli.main(["verify", "jaeger", "--corpus", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "pass  jaeger  a" in out and "pass  jaeger  b" in out


def test_deterministic_output_stable(trefoil_file, capsys):
    cli.main(["jaeger", trefoil_file])
    first = capsys.readouterr().out
    cli.main(["jaeger", trefoil_file])
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


def test_coproduct_budget_on_six_circle_unlink(tmp_path, capsys, monkeypatch):
    # 6 split circles take 127 walk calls, over a budget of 100
    monkeypatch.setattr(coproduct, "DEFAULT_BUDGET", 100)
    path = tmp_path / "unlink-6.mw"
    path.write_text("surface plane\n" + "cup 1 >\ncap 1 <\n" * 6, encoding="utf-8")
    assert cli.main(["coproduct", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and len(err.encode()) < 300
    assert err.startswith("skeinlab: error: coproduct_diagram exceeded its "
                          "budget of 100 walk calls")
    assert "12 events" in err


BUDGETS = {
    # stage: (module with DEFAULT_BUDGET, small limit, unit, command,
    #         document, library call)
    "skein resolution": (engine, 3, "nodes", "eval",
                         "braid 2: 1 1 1 1 1 ; close\n", engine.eval_one_colour),
    "coproduct_diagram": (coproduct, 100, "walk calls", "coproduct",
                          "cup 1 >\ncap 1 <\n" * 6, coproduct.coproduct_diagram),
    "jaeger.state_sum": (jaeger, 4, "labellings", "jaeger",
                         "braid 2: 1 1 ; close\n", jaeger.state_sum),
}


@pytest.mark.parametrize("stage", sorted(BUDGETS))
def test_budget_trip_is_one_error(tmp_path, capsys, monkeypatch, stage):
    module, limit, unit, command, doc, library_call = BUDGETS[stage]
    monkeypatch.setattr(module, "DEFAULT_BUDGET", limit)
    path = tmp_path / "in.mw"
    path.write_text(doc, encoding="utf-8")
    err = _one_line_error(capsys, [command, str(path)])
    assert len(err.encode()) < 300
    assert err.startswith(f"skeinlab: error: {stage} exceeded its budget of "
                          f"{limit} {unit}; offending word: ")
    with pytest.raises(engine.BudgetError) as trip:
        library_call(textio.parse_morse(doc))
    assert trip.value.budget == limit and str(trip.value) in err


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


def test_eval_t_on_the_trefoil(trefoil_file, capsys):
    for t, want in (("1", "q^3"), ("2", "-q^-3 + q + q^3 + q^5"),
                    ("-3", "-q^-7 - q^-5 - 2*q^-3 - q^-1 + q^3 + q^5")):
        assert cli.main(["eval", trefoil_file, "--t", t]) == 0
        assert capsys.readouterr().out == want + "\n"


def test_eval_t_on_a_two_colour_hopf_link(tmp_path, capsys):
    # green over red, then red over green
    hopf = tmp_path / "hopf-gr.mw"
    hopf.write_text("cup 1 > g\ncup 3 > r\nx 2 o\nx 2 o\ncap 3 <\ncap 1 <\n",
                    encoding="utf-8")
    assert cli.main(["eval", str(hopf), "--t", "1,2"]) == 0
    assert capsys.readouterr().out == "q^-1 + q\n"


def test_usage_errors_are_one_line(trefoil_file, capsys):
    for argv in (["bogus"], ["iterate", trefoil_file, "--slots", "x"], ["eval"],
                 ["specialize", trefoil_file, "--t", "2"]):
        _one_line_error(capsys, argv)
    with pytest.raises(SystemExit) as exit_:
        cli.main(["--help"])
    assert exit_.value.code == 0
    assert "{eval,coproduct,jaeger,iterate,verify}" in capsys.readouterr().out


def test_braid_profile_conflict_names_its_line(tmp_path, capsys):
    p = tmp_path / "conflict.mw"
    p.write_text("surface annulus\nframing radial\nprofile ^g\nbraid 1:\n", encoding="utf-8")
    assert _one_line_error(capsys, ["eval", str(p)]) == (
        "skeinlab: error: braid clause and explicit profile conflict at line 4\n")


def test_braid_surface_mismatch_names_its_line(tmp_path, capsys):
    for body, message in (
            ("surface annulus\nbraid 2: 1 ; close\n",
             "closed braid is a plane word at line 2"),
            ("braid 2: 1\n", "open braid is an annulus word; say 'surface annulus' "
                             "or close it at line 1")):
        p = tmp_path / "mismatch.mw"
        p.write_text(body, encoding="utf-8")
        assert _one_line_error(capsys, ["eval", str(p)]) == f"skeinlab: error: {message}\n"


def test_eval_t_count_mismatch_message(trefoil_file, capsys):
    err = _one_line_error(capsys, ["eval", trefoil_file, "--t", "1,2"])
    assert err == "skeinlab: error: expected 1 integer, got 2\n"


def test_verify_choices_are_the_identities():
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    identity = next(a for a in sub.choices["verify"]._actions if a.dest == "identity")
    assert tuple(identity.choices) == coproduct.IDENTITIES + ("all",)


def test_verify_refuses_an_unknown_identity_before_any_work():
    def untouched():
        raise AssertionError("the corpus was read")
        yield
    with pytest.raises(coproduct.CoproductError, match="unknown identity 'bogus'"):
        coproduct.verify("bogus", untouched())


def _plus_one(fn):
    """fn with 1 added to its Scalar result."""
    def wrong(*args, **kwargs):
        value = fn(*args, **kwargs)
        return value + scalars.Scalar.one(value.arity)
    return wrong


def _wrong_counit_1(monkeypatch):
    apply_counit = coproduct.apply_counit

    def wrong(element, slot):
        out = apply_counit(element, slot)
        if slot == 1:
            out.add((Word(),), scalars.Scalar.one(1))  # the empty word is 1
        return out
    monkeypatch.setattr(coproduct, "apply_counit", wrong)


def _wrong_union(monkeypatch):
    combine = diagrams.combine
    unknot = textio.parse_morse("cup 1 >\ncap 1 <\n")
    monkeypatch.setattr(diagrams, "combine", lambda a, b: combine(combine(a, b), unknot))


WRONG_VALUE = {
    "jaeger": (lambda mp: mp.setattr(scalars, "scalar_coproduct",
                                     _plus_one(scalars.scalar_coproduct)),
               ("state sum", "boxes", "ring")),
    "coassoc": (lambda mp: mp.setattr(jaeger, "state_sum", _plus_one(jaeger.state_sum)),
                ("3-label", "left", "right")),
    "counit": (_wrong_counit_1, ("value", "counit-2", "counit-1")),
    "mult": (_wrong_union, ("union", "product")),
}


@pytest.mark.parametrize("identity", sorted(WRONG_VALUE))
def test_one_wrong_value_fails_once_naming_every_label(tmp_path, capsys, monkeypatch,
                                                       identity):
    (tmp_path / "trefoil.mw").write_text("braid 2: 1 1 1 ; close\n", encoding="utf-8")
    break_one_value, labels = WRONG_VALUE[identity]
    break_one_value(monkeypatch)
    assert cli.main(["verify", identity, "--corpus", str(tmp_path)]) == 2
    fails = [line for line in capsys.readouterr().out.splitlines()
             if line.startswith("FAIL  ")]
    assert len(fails) == 1
    head, witness = fails[0].split("  [")
    assert head.startswith(f"FAIL  {identity}  trefoil") and witness.endswith("]")
    parts = witness[:-1].split(" vs ")
    assert len(parts) == len(labels)
    assert all(part.startswith(label + " ") for part, label in zip(parts, labels))
    # one value is wrong, the others agree
    assert len({part[len(label) + 1:] for part, label in zip(parts, labels)}) == 2
