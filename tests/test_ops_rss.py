"""The summary step of ``tools/ops_rss.py`` on canned worker output; no process is spawned."""

import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "ops_rss.py"


def _tool():
    spec = importlib.util.spec_from_file_location("ops_rss", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _worker_stdout(ok: int, failed: int, wall: float, rss: float) -> str:
    records = [[0.001, True, "d", 0, "certify", None]] * ok + [[None, False, None, 0, "certify", "E: x"]] * failed
    return "ready\n" + json.dumps({"records": records, "wall": wall, "peak_rss_mb": rss, "spans": []}) + "\n"


def test_summary_takes_the_median_rate_and_rss_of_the_rounds():
    outputs = [_worker_stdout(100, 0, 0.5, 25.0), _worker_stdout(98, 2, 0.4, 24.5), _worker_stdout(100, 0, 0.25, 26.0)]
    line = _tool().summarize("change", outputs)
    assert line == {
        "side": "change",
        "rounds": 3,
        "ops_per_s": 245.0,  # the median of 200, 245 and 400 successful ops per second
        "peak_rss_mb": 25.0,
        "failed_ops": 2,
        "ops_per_s_runs": [200.0, 245.0, 400.0],
        "peak_rss_mb_runs": [25.0, 24.5, 26.0],
    }
    json.dumps(line)
