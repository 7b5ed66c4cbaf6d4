#!/usr/bin/env python3
"""Record the seed-0 reference values that the benchmark checks against.

    python3 perfbench/record_references.py

Runs one pass of every workload at both sizes and writes references.json.
Re-record only when a change is meant to alter results, and say so with the
change: the references are what catches a wrong answer at seed 0.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def main() -> int:
    table = {}
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        for size in workloads.SIZES:
            table[size] = {}
            for name in workloads.WORKLOADS:
                wl = workloads.build(name, size, 0, Path(tmp) / size, None)
                out = wl.run_pass()
                attempted, failed, messages = wl.check(out)
                messages += wl.setup_errors()
                if failed or messages:
                    print(f"{size} {name}: checks failed: {messages}",
                          file=sys.stderr)
                    return 1
                table[size][name] = wl.references(out)
    (HERE / "references.json").write_text(json.dumps(table, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
