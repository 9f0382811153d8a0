"""A fixed task that shows how fast this machine runs at the moment.

The benchmark spawns it next to the commands it times.  It shares no code
with ldimkit, so a change to the program does not move it, while a change
in the machine's speed (other tenants, clock, caches, memory bandwidth)
moves it together with the commands.  Its mix follows theirs: interpreter
start-up and the numpy import, pure-Python tuple and dict work as in the
clause builder, and numpy passes over freshly allocated arrays of 128 MB as
in the verifier's dense matrices.  The memory part tracks the long verify
and encode commands best.
"""

import numpy as np


def main() -> None:
    clauses, index = [], {}
    for i in range(200_000):
        clause = (i, -(i + 1), (i * 7) % 1009)
        clauses.append(clause)
        index[clause[2]] = index.get(clause[2], 0) + 1
    total = 0
    for _ in range(2):
        a = np.arange(4096 * 4096, dtype=np.int64).reshape(4096, 4096)
        total += int(((a % 7) < 3).sum())
    if len(clauses) != 200_000 or total != 2 * 7190236:
        raise SystemExit("reference task computed a wrong result")


if __name__ == "__main__":
    main()
