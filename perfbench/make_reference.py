#!/usr/bin/env python3
"""Record the ``cli`` workload's references from the current tree.

Run once at the commit whose outputs are the reference (the benchmark was
defined at such a commit, and ``reference.json`` holds its outputs):

    python3 perfbench/make_reference.py

Every variant in ``cli_workload.variants()`` whose correct outcome is output
is run once.  ``expand`` outputs are stored as SHA-256 digests, because they
must stay byte-identical; float-valued outputs are stored as text and
compared cell by cell within a relative tolerance.  ``curve --format json``
is compared against the CSV text of the same grid.
"""

import hashlib
import json
import shlex
import subprocess
import sys

import cli_workload
from common import ROOT, child_env, require_checkout


def _run(argv):
    proc = subprocess.run(
        [sys.executable, "-m", "vdwdim.cli", *shlex.split(argv)],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        sys.exit(f"reference run failed: vdw {argv}\n{proc.stderr}")
    return proc.stdout


def main():
    require_checkout()
    ref = {"digest": {}, "text": {}, "verify_fast": []}
    for ops in cli_workload.variants().values():
        for argv, how in ops:
            if how == "digest":
                ref["digest"][argv] = hashlib.sha256(_run(argv).encode()).hexdigest()
            elif how == "table":
                ref["text"][argv] = _run(argv)
            elif how == "verify":
                lines = _run(argv).strip().splitlines()[:-1]
                ref["verify_fast"] = [
                    ln.split("] ", 1)[1].split(":", 1)[0] for ln in lines
                ]
    cli_workload.REFERENCE_PATH.write_text(
        json.dumps(ref, indent=1, sort_keys=True) + "\n"
    )
    print(f"wrote {cli_workload.REFERENCE_PATH}")


if __name__ == "__main__":
    main()
