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
