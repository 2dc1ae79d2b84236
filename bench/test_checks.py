"""Each benchmark check passes the program's real output and catches a
corrupted one. Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q bench/test_checks.py
"""

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
from skeinlab import cli, engine, scalars, textio  # noqa: E402


def run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def output_of(case, tmp_path):
    if case.command == "verify":
        corpus = tmp_path / case.name
        corpus.mkdir()
        for fn, text in case.files.items():
            (corpus / fn).write_text(text)
        return run_cli(["verify", "all", "--corpus", str(corpus), "--deterministic"])
    path = tmp_path / f"{case.name}.mw"
    path.write_text(case.files["in.mw"])
    return run_cli([case.command, str(path), "--format", "json"])


def slot_value(doc, q, a):
    value = engine.eval_one_colour(textio.parse_morse(doc))
    return checks.scalar_at(scalars.to_json(value), q, [a])


def find(cases, name):
    return next(c for c in cases if c.name == name)


def bump_first_coefficient(scalar: dict) -> None:
    scalar["terms"][0]["c"] = str(int(scalar["terms"][0]["c"]) + 1)


def test_recursion_matches_known_values():
    q, a, _ = checks.POINTS[0]
    d = checks.d_of(q, a)
    assert checks.torus_value(0, q, a) == d * d
    assert checks.torus_value(1, q, a) == a * d
    assert checks.torus_value(-1, q, a) == d / a          # negative kink
    assert checks.torus_value(2, q, a) - checks.torus_value(0, q, a) \
        == checks.z_of(q) * checks.torus_value(1, q, a)


def test_torus_check(tmp_path):
    case = find(inputs.braid_eval(0), "torus-2-22")
    rc, out = output_of(case, tmp_path)
    assert checks.check(case, rc, out, slot_value) is None
    data = json.loads(out)
    bump_first_coefficient(data)
    assert checks.check_torus(json.dumps(data), 22) is not None
    assert checks.check(case, rc, out[:-20], slot_value).startswith("malformed")


def test_collapse_check(tmp_path):
    case = next(c for c in inputs.braid_eval(3) if c.expect["kind"] == "closure")
    rc, out = output_of(case, tmp_path)
    assert checks.check(case, rc, out, slot_value) is None
    data = json.loads(out)
    bump_first_coefficient(data)
    assert checks.check_collapse(json.dumps(data), case.expect["writhe"]) is not None
    assert checks.check_collapse(out, case.expect["writhe"] + 2) is not None


def test_unlink_checks(tmp_path):
    cases = inputs.split_coproduct(5)
    for name in ("unlink-5-ccw", "unlink-5-cw", "unlink-5-mixed"):
        case = find(cases, name)
        rc, out = output_of(case, tmp_path)
        assert checks.check(case, rc, out, slot_value) is None, name
        data = json.loads(out)
        bump_first_coefficient(data["terms"][0]["coeff"])
        assert checks.check_unlink(json.dumps(data), 5, case.expect["ccw"]) is not None, name
    # Merging two terms keeps the evaluated sum but breaks the term structure.
    case = find(cases, "unlink-3-ccw")
    rc, out = output_of(case, tmp_path)
    data = json.loads(out)
    data["terms"] = data["terms"][1:]
    assert checks.check_unlink(json.dumps(data), 3, True) is not None
    data = json.loads(out)
    data["terms"][0]["diagrams"][0] += "cup 1 >\ncap 1 <\n"
    assert checks.check_unlink(json.dumps(data), 3, False) is not None


def test_union_check(tmp_path):
    cases = [c for c in inputs.split_coproduct(2) if c.expect["kind"] == "union"]
    for case in (cases[1], cases[-1]):
        rc, out = output_of(case, tmp_path)
        assert checks.check(case, rc, out, slot_value) is None, case.name
        data = json.loads(out)
        bump_first_coefficient(data["terms"][-1]["coeff"])
        assert checks.check(case, rc, json.dumps(data), slot_value) is not None


def test_verify_check(tmp_path):
    assert checks.expected_checks(9, 2) == 114    # the builtin corpus
    case = inputs.verify_fuzz(4)[0]
    rc, out = output_of(case, tmp_path)
    assert checks.check(case, rc, out, slot_value) is None
    lines = out.splitlines()
    bad = lines[:-1] + [lines[-1].replace("ok: 16", "ok: 15")]
    assert checks.check(case, rc, "\n".join(bad), slot_value) is not None
    failed = [lines[0].replace("pass ", "FAIL ", 1)] + lines[1:]
    assert checks.check(case, rc, "\n".join(failed), slot_value) is not None
    assert checks.check(case, 2, out, slot_value) is not None

