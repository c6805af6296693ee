#!/usr/bin/env python3
"""Anti-squeezing needed to translate each kitten's displacement onto every
other kitten's, plus the squeeze-photon cost of the match.

Runs the full source x target herald grid in the infinite-squeezing limit;
takes tens of milliseconds.
"""

import sys

from dipnesim.cli import main

if __name__ == "__main__":
    sys.exit(main(["match", "--out", "displacement_matching.csv", *sys.argv[1:]]))
