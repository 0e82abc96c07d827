"""The per-check ladder script: one fresh process per spec, with run_all's records."""

import json
import subprocess
import sys
from pathlib import Path

from terwilliger.scheme import SchemeSpec
from terwilliger.verify import run_all

ROOT = Path(__file__).resolve().parents[1]


def test_ladder_records_are_run_alls(tmp_path):
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "ladder.py"), "--label", "smoke",
         "2,3/2", "2,3/0:dimension-rank,transpose", "2,3/2:no-such-check"],
        capture_output=True, text=True, timeout=300, cwd=tmp_path,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads((tmp_path / "LADDER_smoke.json").read_text())
    full, some, unknown = result["specs"]
    expected = [(r.name, r.passed, r.count, r.detail) for r in run_all(SchemeSpec(sizes=(2, 3), characteristic=2))]
    assert [(c["name"], c["passed"], c["count"], c["detail"]) for c in full["checks"]] == expected
    assert full["error"] is None and full["spec"] == "2,3/2"
    rss = [full["rss_after_import_mb"]] + [c["rss_mb"] for c in full["checks"]]
    assert rss == sorted(rss) and rss[0] > 0  # a peak only grows
    assert all(c["seconds"] >= 0 for c in full["checks"])
    assert [c["name"] for c in some["checks"]] == ["dimension-rank", "transpose"]
    assert unknown["checks"] == [] and "no-such-check" in unknown["error"]
