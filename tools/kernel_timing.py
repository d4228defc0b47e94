"""Time the tracing kernel quotient._log_derivatives in two source trees.

    python3 tools/kernel_timing.py TREE_A TREE_B [ROUNDS]

TREE_A and TREE_B are checkouts of the repository (each with its src/).
Each round runs one fresh Python process per tree, the order alternating
from round to round (A first in even rounds), ROUNDS rounds, 6 by
default.  A process imports the package from its tree's src/ and, for
each case, takes the best of 5 repeats of 1000 calls of
_log_derivatives(4, s), s a 1-D batch of k = 1, 2 or 3 points with sigma
in linspace(0.6, 3, k) at one t = 20, 60 or 95, after one warm-up call
that fills the kernel's cache.  The script prints one JSON object: per
case ("1pt/t20", ...) and tree, the min, median and max over the rounds
of the process bests, in microseconds per call.

Compare the medians against the other tree's min..max: the host's speed
moves every process, so only alternating processes are comparable.  Uses
only the standard library in this process and numpy in the timed ones.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

CASES = [(k, t) for k in (1, 2, 3) for t in (20.0, 60.0, 95.0)]
REPEATS, CALLS = 5, 1000

# run in a fresh process with the tree as argv[1]; prints {case: best us per call}
_CHILD = """
import json, sys, time
sys.path.insert(0, sys.argv[1] + "/src")
import numpy as np
from delta_lens.quotient import _log_derivatives
out = {}
for k, t in %r:
    s = np.linspace(0.6, 3.0, k) + 1j * t
    _log_derivatives(4, s)
    best = float("inf")
    for _ in range(%d):
        start = time.perf_counter()
        for _ in range(%d):
            _log_derivatives(4, s)
        best = min(best, time.perf_counter() - start)
    out[f"{k}pt/t{t:g}"] = 1e6 * best / %d
print(json.dumps(out))
""" % (CASES, REPEATS, CALLS, CALLS)


def _process_bests(tree: Path) -> dict:
    run = subprocess.run([sys.executable, "-c", _CHILD, str(tree)], capture_output=True, text=True, check=True)
    return json.loads(run.stdout)


def main(argv: list[str]) -> None:
    if len(argv) not in (2, 3):
        sys.exit(__doc__)
    trees = {"a": Path(argv[0]).resolve(), "b": Path(argv[1]).resolve()}
    rounds = int(argv[2]) if len(argv) == 3 else 6
    runs = {name: [] for name in trees}
    for r in range(rounds):
        for name in (("a", "b") if r % 2 == 0 else ("b", "a")):
            runs[name].append(_process_bests(trees[name]))
    cases = {}
    for case in runs["a"][0]:
        cases[case] = {}
        for name in trees:
            values = [run[case] for run in runs[name]]
            cases[case][name] = {"min": round(min(values), 2), "median": round(statistics.median(values), 2),
                                 "max": round(max(values), 2)}
    print(json.dumps({"unit": "us per call", "rounds": rounds, "trees": {k: str(v) for k, v in trees.items()},
                      "cases": cases}, indent=1))


if __name__ == "__main__":
    main(sys.argv[1:])
