"""Regenerate ``bench/reference.json``: the answer digests of the
seed-independent ops (fixed conjugates and searches, CLI runs on
``inputs/``, the enumeration census, round trips of ``inputs/``).

    python3 bench/make_reference.py

Run it only on a commit whose answers are known good, and only when a
change deliberately alters one of those answers.
"""

import json
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import workloads  # noqa: E402


def main() -> None:
    refs = {}
    scratch = BENCH / "out" / "reference-inputs"
    try:
        for name in workloads.WORKLOADS:
            for op in workloads.build(name, 0, scratch).cycle:
                if op.ref is not None:
                    refs[op.ref] = workloads.digest(op.run())
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    workloads.REFERENCE_FILE.write_text(json.dumps(refs, indent=2, sort_keys=True) + "\n")
    print(f"{len(refs)} references written to {workloads.REFERENCE_FILE.name}")


if __name__ == "__main__":
    main()
