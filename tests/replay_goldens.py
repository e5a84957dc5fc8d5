"""Replay the golden corpus through a command line and compare its bytes.

    python tests/replay_goldens.py GOLDEN_DIR COMMAND...

For each entry of GOLDEN_DIR/manifest.json, runs COMMAND followed by the
entry's argv, whose input file is taken from the corpus of the `segrenum`
package this interpreter finds (installed, or on PYTHONPATH).  The exit
code and stdout must equal the entry's.  For example, from the checkout:

    PYTHONPATH=src python tests/replay_goldens.py src/segrenum/corpus/golden \\
        python -m segrenum.cli

Needs only the standard library, so any supported interpreter can run
it; exits 1 when a golden is not reproduced.
"""

import importlib.util
import json
import pathlib
import subprocess
import sys


def main(argv):
    golden, command = pathlib.Path(argv[0]), argv[1:]
    corpus = pathlib.Path(importlib.util.find_spec("segrenum").origin).parent / "corpus"
    manifest = json.loads((golden / "manifest.json").read_text(encoding="utf-8"))
    failed = []
    for entry in manifest:
        args = list(entry["argv"])
        args[1] = str(corpus / args[1])
        run = subprocess.run(command + args, capture_output=True)
        if (run.returncode, run.stdout) != (entry["exit"], (golden / entry["golden"]).read_bytes()):
            failed.append(entry["golden"])
            print(f"{entry['golden']}: exit {run.returncode}", run.stderr.decode(), sep="\n")
    print(f"{len(manifest) - len(failed)} of {len(manifest)} goldens reproduced")
    return 1 if failed else 0


if __name__ == "__main__":
    if len(sys.argv) < 3:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1:]))
