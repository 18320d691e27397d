"""Compare the artifact digests printed by two benchmark runs.

    python3 perfbench/run.py --workload tall --seed 1 --seconds 30 --trace 0 > a.out
    (same command on another commit)                                          > b.out
    python3 perfbench/compare_digests.py a.out b.out

Prints every file whose digest differs or that only one run wrote, and
exits with 1 if there is any, else 0.  Runs on the same workload and seed
cover the same datasets when each ran long enough to reach them; a
dataset only one side reached is listed as missing.
"""

from __future__ import annotations

import sys


def read_digests(path: str) -> dict[tuple[str, str, str], str]:
    out = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            parts = line.split()
            if len(parts) == 5 and parts[0] == "digest":
                _, workload, seed, name, digest = parts
                out[(workload, seed, name)] = digest
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (read_digests(p) for p in argv)
    differ = 0
    for key in sorted(a.keys() | b.keys()):
        if a.get(key) != b.get(key):
            differ += 1
            state = "missing" if key not in a or key not in b else "differs"
            print(f"{state}: {' '.join(key)}")
    print(f"{len(a.keys() & b.keys())} files in both runs, {differ} differ or are missing")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
