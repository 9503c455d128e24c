"""Set two benchmark records side by side and flag what makes them differ.

    python3 perfbench/compare.py OLD.json NEW.json

Records are the files ``run.py`` writes to ``perfbench/out/``. Every
environment field that differs (Python, NumPy, BLAS and its threads, CPU,
core count, integrator backend) is flagged, because the two numbers then
come from different programs or machines. A differing ``backend`` makes
the exit code 1: the integrator kernels trade off against each other by
workload, so such a comparison says nothing about the change under test.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    old, new = (json.loads(Path(p).read_text()) for p in argv)
    if (old["workload"], old["trace"]) != (new["workload"], new["trace"]):
        print("the records are of different workloads or trace modes",
              file=sys.stderr)
        return 2
    for key in sorted(old["env"].keys() | new["env"].keys()):
        if old["env"].get(key) != new["env"].get(key):
            print(f"FLAG {key} differs: {old['env'].get(key)!r} -> "
                  f"{new['env'].get(key)!r}")
    print(f"{old['workload']} trace={int(old['trace'])}: "
          f"seed {old['seed']} -> seed {new['seed']}")
    for name, before in old["values"].items():
        after = new["values"].get(name)
        if after is None:
            continue
        change = f"{(after - before) / before:+.1%}" if before else "n/a"
        print(f"  {name:34s} {before:12.6g} {after:12.6g} {change:>8s}")
    return 1 if old["env"]["backend"] != new["env"]["backend"] else 0


if __name__ == "__main__":
    sys.exit(main())
