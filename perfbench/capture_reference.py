"""Capture ``reference_artifacts.json``: every checked paper_artifacts cell.

Run from the root of a checkout, on the commit whose output is the
reference::

    python3 perfbench/capture_reference.py

It runs two passes at the reference seed, requires them to agree
exactly, and writes the cells with the commit they came from.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run


def main() -> int:
    os.environ.update(run.THREAD_PINS)
    sys.path.insert(0, str(run.ROOT / "src"))
    import workloads

    scratch = run.OUT / f"tmp-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    wl = workloads.PaperArtifactsWorkload(workloads.REFERENCE_SEED, scratch)
    try:
        wl.setup()
        first = wl.run_pass()
        second = wl.run_pass()
    finally:
        wl.close()
        shutil.rmtree(scratch, ignore_errors=True)
    if first != second:
        diff = sorted(k for k in first if first[k] != second.get(k))
        print(f"error: two passes differ in {len(diff)} cells, e.g. {diff[:3]}",
              file=sys.stderr)
        return 1
    workloads.REFERENCE_CELLS.write_text(json.dumps({
        "seed": workloads.REFERENCE_SEED,
        "git_sha": run.git_sha(),
        "cells": first,
    }, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(first)} cells to {workloads.REFERENCE_CELLS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
