"""Replay the golden corpus through a command line and compare its bytes.

    python tests/replay_goldens.py [--write] GOLDEN_DIR COMMAND...

For each entry of GOLDEN_DIR/manifest.json, runs COMMAND followed by the
entry's argv, whose input file is taken from the corpus of the `segrenum`
package this interpreter finds (installed, or on PYTHONPATH).  The exit
code and stdout must equal the entry's.  For example, from the checkout:

    PYTHONPATH=src python tests/replay_goldens.py src/segrenum/corpus/golden \\
        python -m segrenum.cli

Needs only the standard library, so any supported interpreter can run
it; exits 1 when a golden is not reproduced.  A report that differs from
its golden only in the `engine` counters prints each changed counter as
old -> new.

With --write, such a report replaces its golden, and the golden counts as
reproduced.  Any other difference (another key, the exit code) is refused:
its golden is left as it is, and the exit status is 1.
"""

import importlib.util
import json
import pathlib
import subprocess
import sys


def _engine_drift(golden, report):
    """The changed engine counters, as lines "name: old -> new", when the
    two reports hold the same keys in the same order with the same values
    apart from their `engine` blocks; else None."""
    try:
        old, new = json.loads(golden), json.loads(report)
    except ValueError:
        return None
    if not (isinstance(old, dict) and isinstance(new, dict)):
        return None
    before, after = old.pop("engine", {}), new.pop("engine", {})
    if json.dumps(old) != json.dumps(new):
        return None
    return [f"  {k}: {before.get(k)} -> {after.get(k)}"
            for k in dict.fromkeys([*before, *after]) if before.get(k) != after.get(k)] or None


def main(argv):
    write = argv[0] == "--write"
    golden, command = pathlib.Path(argv[write]), argv[write + 1:]
    corpus = pathlib.Path(importlib.util.find_spec("segrenum").origin).parent / "corpus"
    manifest = json.loads((golden / "manifest.json").read_text(encoding="utf-8"))
    failed = []
    for entry in manifest:
        args = list(entry["argv"])
        args[1] = str(corpus / args[1])
        run = subprocess.run(command + args, capture_output=True)
        expected = (golden / entry["golden"]).read_bytes()
        if (run.returncode, run.stdout) != (entry["exit"], expected):
            print(f"{entry['golden']}: exit {run.returncode}", run.stderr.decode(), sep="\n")
            drift = _engine_drift(expected, run.stdout)
            if drift is not None and run.returncode == entry["exit"]:
                print("only the engine counters differ:", *drift, sep="\n")
                if write:
                    (golden / entry["golden"]).write_bytes(run.stdout)
                    print(f"rewrote {entry['golden']}")
                    continue
            elif write:
                print(f"refused to rewrite {entry['golden']}: it differs outside `engine`")
            failed.append(entry["golden"])
    print(f"{len(manifest) - len(failed)} of {len(manifest)} goldens reproduced")
    return 1 if failed else 0


if __name__ == "__main__":
    if len(sys.argv) < 3 + (sys.argv[1:2] == ["--write"]):
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1:]))
