"""One set-up sample, in a fresh interpreter.

    python3 perfbench/probe_setup.py LEXICON TABLE

Prints the seconds from just before ``import lingdist`` to the point where
LEXICON is parsed and the built-in TABLE is built.
"""

import sys
import time
from pathlib import Path


def main(lexicon_path, table_name):
    start = time.perf_counter()
    import lingdist.cli  # what the command line imports
    lingdist.lexicon.parse_lexicon(Path(lexicon_path).read_text(encoding="utf-8"))
    lingdist.subst.builtin_table(table_name)
    print(repr(time.perf_counter() - start))


if __name__ == "__main__":
    main(*sys.argv[1:])
