"""One reference sample of the host's speed, in a fresh interpreter.

    python3 perfbench/probe_reference.py

Prints the seconds a fixed pure-Python job takes: the edit-distance dynamic
programme over a fixed set of words, the kind of loop lingdist spends its
time in.  It does not use lingdist, so no change to lingdist moves it.
"""

import time

WORDS = ("kastanienbaum", "castagnobaum", "chestnuttree", "kastanjeboom", "castanheiro")
REPEATS = 48


def job():
    total = 0.0
    for _ in range(REPEATS):
        for a in WORDS:
            for b in WORDS:
                prev = [float(j) for j in range(len(b) + 1)]
                for i, x in enumerate(a, 1):
                    cur = [float(i)]
                    for j, y in enumerate(b, 1):
                        cur.append(min(prev[j] + 1.0, cur[j - 1] + 1.0,
                                       prev[j - 1] + (x != y) * 0.5))
                    prev = cur
                total += prev[-1]
    return total


if __name__ == "__main__":
    start = time.perf_counter()
    job()
    print(repr(time.perf_counter() - start))
