#!/usr/bin/env python3
"""Production kitten sweep: herald counts 1..9 over 1-20 squeezing photons.

Writes kitten_quality.csv with per-point herald probability, mean photon
number, squeezed-cat and plain-cat infidelities, and the fitted squeeze
fraction. Takes tens of milliseconds at the default cutoff of 1000.
"""

import sys

from dipnesim.cli import main

if __name__ == "__main__":
    sys.exit(main(["kitten", "--out", "kitten_quality.csv", *sys.argv[1:]]))
