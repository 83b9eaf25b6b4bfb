"""Every CLI output for seed 1 keeps the bits recorded in tests/data.

tools/outputs.py writes this checkout's outputs on the benchmark's seed-1
inputs, and their SHA-256 digests must equal those in
tests/data/outputs-seed1.sha256. A change that alters output bits on
purpose regenerates that manifest (its header says how) and says so.
"""

import hashlib
import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MANIFEST = ROOT / "tests" / "data" / "outputs-seed1.sha256"


def test_seed1_outputs_match_the_manifest(tmp_path, monkeypatch):
    # tools/outputs.py puts perfbench/ on sys.path and sets workloads.SRC
    monkeypatch.setattr(sys, "path", [*sys.path])
    spec = importlib.util.spec_from_file_location(
        "outputs", ROOT / "tools" / "outputs.py")
    outputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(outputs)
    monkeypatch.setattr(outputs.workloads, "SRC", outputs.workloads.SRC)
    outputs.write_outputs(ROOT / "src", 1, tmp_path)

    want = dict(line.split()[::-1] for line in
                MANIFEST.read_text().splitlines() if not line.startswith("#"))
    got = {str(p.relative_to(tmp_path)):
           hashlib.sha256(p.read_bytes()).hexdigest()
           for p in tmp_path.rglob("*") if p.is_file()}
    differ = sorted(p for p in want.keys() | got.keys()
                    if want.get(p) != got.get(p))
    assert not differ, (f"{len(differ)} of the seed-1 outputs differ from "
                        f"{MANIFEST.name}: " + ", ".join(differ))


def test_differing_names_each_changed_or_one_sided_file(tmp_path,
                                                        monkeypatch):
    monkeypatch.setattr(sys, "path", [*sys.path])
    spec = importlib.util.spec_from_file_location(
        "outputs", ROOT / "tools" / "outputs.py")
    outputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(outputs)

    a, b = tmp_path / "a", tmp_path / "b"
    for side in (a, b):
        (side / "sub").mkdir(parents=True)
        (side / "x.csv").write_bytes(b"1,2\n")
        (side / "sub" / "y.json").write_bytes(b"{}\n")
    assert outputs.differing(a, b) == []

    (b / "x.csv").write_bytes(b"1,3\n")
    assert outputs.differing(a, b) == ["x.csv"]

    (b / "x.csv").write_bytes(b"1,2\n")
    (a / "sub" / "only.txt").write_bytes(b"")
    assert outputs.differing(a, b) == ["sub/only.txt"]
    assert outputs.differing(b, a) == ["sub/only.txt"]


def test_change_gives_the_largest_difference_and_integer_moves(tmp_path,
                                                               monkeypatch):
    monkeypatch.setattr(sys, "path", [*sys.path])
    spec = importlib.util.spec_from_file_location(
        "outputs", ROOT / "tools" / "outputs.py")
    outputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(outputs)

    def change(name, a, b):
        (tmp_path / "a").mkdir(exist_ok=True)
        (tmp_path / "b").mkdir(exist_ok=True)
        (tmp_path / "a" / name).write_text(a)
        (tmp_path / "b" / name).write_text(b)
        return outputs.change(tmp_path / "a" / name, tmp_path / "b" / name)

    head = '# {"seed": 1}\nbin_lo,bin_hi,count\n'
    rows = "-0.25,0.5,12\n0.5,1e-5,3\n"
    assert change("h.csv", head + rows, head + rows.replace("1e-5", "2e-5")) \
        == "largest absolute change 1e-05, no integer changed"
    assert change("h.csv", head + rows, head + rows.replace(",3", ",4")) \
        == "largest absolute change 1, an integer changed"
    # the `#` line is not compared; NaN on both sides is no change
    assert change("h.csv", head + "nan,1\n",
                  head.replace("1", "2") + "nan,1\n") \
        == "largest absolute change 0, no integer changed"
    assert change("h.csv", "x,y\nnan,1\n", "x,y\n0.5,1\n") \
        == "largest absolute change inf, no integer changed"
    assert change("h.csv", head + rows, head + rows + "1,2,3\n") \
        == "differs in layout"
    assert change("h.csv", "x,y\n1,2\n", "x,z\n1,2\n") \
        == "differs in layout or text"

    doc = ('{"n_draws": 100, "model": "z1,x1", "range": "(-inf, -0.25]", '
           '"ci": [0.125, 0.75]}')
    assert change("t.json", doc, doc.replace("0.75", "0.7500001")) \
        == "largest absolute change 1e-07, no integer changed"
    assert change("t.json", doc, doc.replace("-0.25]", "-0.5]")) \
        == "largest absolute change 0.25, no integer changed"
    assert change("t.json", doc, doc.replace("100", "101")) \
        == "largest absolute change 1, an integer changed"
    assert change("t.json", doc, doc.replace("z1,x1", "z1,x2")) \
        == "differs in layout or text"
    assert change("d.txt", "a 1\n", "a 2\n") \
        == "differs (not a CSV or JSON file)"
    assert outputs.change(tmp_path / "a" / "h.csv", tmp_path / "b" / "x.csv") \
        == "on one side only"
