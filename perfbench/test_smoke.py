"""The benchmark's own test; run it with ``python3 -m pytest perfbench``.

``run.py --smoke`` runs every workload's code path on tiny inputs, traced
and untraced, and fails unless every metric is emitted, every output check
passes and the per-layer self times add up to the traced wall time.
"""
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def test_smoke_mode_passes():
    done = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"],
                          capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.count("PASS smoke") == 6


def test_compare_flags_a_backend_change(tmp_path):
    record = {"workload": "trace", "trace": 0, "seed": 1,
              "env": {"backend": "python", "nproc": 2},
              "values": {"wall_s": 10.0}}
    other = dict(record, env={"backend": "native", "nproc": 2},
                 values={"wall_s": 1.0})
    paths = []
    for name, doc in (("old.json", record), ("new.json", other)):
        paths.append(tmp_path / name)
        paths[-1].write_text(json.dumps(doc))
    done = subprocess.run([sys.executable, str(HERE / "compare.py"),
                           *map(str, paths)],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 1
    assert "FLAG backend differs" in done.stdout
