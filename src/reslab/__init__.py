"""Desk-scale lab for negative central values of smoothed quadratic
character sums, driven by a two-band multiplicative resonator."""

__version__ = "0.1.0"

# the layers load with the package, before reslab.cli's own imports
# (argparse, json); the other order peaks about 0.5 MB higher
from . import arith, resonator, smoothing, charsums, analytic, sieve
