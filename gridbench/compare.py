"""Compare two benchmark results, each the saved stdout of `run.py`.

    python3 gridbench/compare.py BASE.txt NEW.txt

Prints each metric of NEW as a ratio to BASE.  Refuses, with exit code
2, results from different workloads or kernels: the compiled and the
pure-Python treewidth kernels differ by 7-21x, so comparing across them
would fake a gain or a loss.
"""

import json
import sys


def load(path):
    """(detail, result) from the last two lines of a saved stdout."""
    with open(path) as f:
        lines = f.read().strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    (db, base), (dn, new) = [load(path) for path in argv[1:]]
    for what, b, n in (("workload", db["workload"], dn["workload"]),
                       ("kernel", db["provenance"]["kernel"],
                        dn["provenance"]["kernel"])):
        if b != n:
            print(f"not comparable: {what} {b} vs {n}")
            return 2
    for name, m in base["metrics"].items():
        other = new["metrics"].get(name)
        if other is None:
            continue
        ratio = other["value"] / m["value"] if m["value"] else float("nan")
        print(f"{name:48s} {m['value']:14.6g} {other['value']:14.6g} "
              f"{ratio:8.3f}x {m['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
