"""The benchmark's tracer (bench/spans.py) wraps names of the package from
outside. A rename in the package would break a `--trace 1` run without
failing any other test, so this one installs the tracer on the modules
that bench/run.py traces and runs four commands under it."""

import importlib
from pathlib import Path

from skeinlab import cli

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_tracer_still_fits_the_package(tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(BENCH))
    spans = importlib.import_module("spans")
    modules = importlib.import_module("run").MODULES
    sk = {m: importlib.import_module(f"skeinlab.{m}") for m in modules}
    resolve = sk["engine"]._resolve
    trefoil = tmp_path / "trefoil.mw"
    trefoil.write_text("braid 2: 1 1 1 ; close\n", encoding="utf-8")
    core = tmp_path / "core.mw"
    core.write_text("surface annulus\nframing radial\nprofile ^g\n", encoding="utf-8")
    tracer = spans.Tracer()
    try:
        spans.install(tracer, sk)
        assert cli.main(["eval", str(trefoil)]) == 0
        # the memo is keyed on `word_key` bytes, which the tracer's node
        # count reads: keyed otherwise, every visit would count as a node
        evaluated = dict(tracer.snapshot()["counts"])
        assert 0 < evaluated["engine.nodes"] < evaluated["engine.visits"]
        assert cli.main(["coproduct", str(trefoil), "--format", "json"]) == 0
        assert cli.main(["verify", "framing-remark", "--corpus", str(tmp_path)]) == 0
        assert cli.main(["verify", "jaeger", "--corpus", str(tmp_path)]) == 0
    finally:
        tracer.uninstall()
    assert sk["engine"]._resolve is resolve
    counts = tracer.snapshot()["counts"]
    for key in ("engine.nodes", "coproduct.terms_out", "diagrams.analyze",
                "jaeger.labellings"):
        assert counts[key] > 0, key
    assert "0 failures" in capsys.readouterr().out
