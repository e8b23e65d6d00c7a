"""Record the reference digest of every case of every workload.

    python3 perfbench/record.py

Runs each workload's whole population once, in canonical order, and
writes perfbench/reference.json: per workload, the first DIGEST_HEX hex
digits of the SHA-256 of each case's canonical outputs, concatenated in
population order.  Takes about two minutes.  Re-record only when the
library's outputs are meant to change; the benchmark's correctness gate
compares every case it runs against this file.
"""

from __future__ import annotations

import json
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import cases  # noqa: E402
from run import source_digest  # noqa: E402


def main() -> int:
    digests = {}
    for workload in cases.POPULATIONS:
        out = []
        for case in cases.population(workload):
            # stembridge cases share no shapes; keeping every chain table
            # of a whole population would take gigabytes
            if workload.startswith("stembridge"):
                cases.clear_caches()
            lhs, rhs = cases.run_case(case)
            if not cases.holds(lhs, rhs):
                sys.stderr.write(f"{workload} {case.id}: identity fails\n")
                return 1
            out.append(cases.digest(cases.canonical(case, lhs, rhs)))
        digests[workload] = "".join(out)
        print(f"{workload}: {len(out)} cases", flush=True)
    doc = {"digest_hex": cases.DIGEST_HEX,
           "python": platform.python_version(),
           "src_sha256": source_digest(),
           "digests": digests}
    (HERE / "reference.json").write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
