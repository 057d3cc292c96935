"""Reference work: a fixed yardstick for the machine's current speed.

    python bench/reference.py      # prints a checksum and its compute time

It imports nothing from heiscalc, so no change to the program changes
its cost.  Its work resembles the CLI's: a fresh interpreter that
imports numpy, multiplies sparse polynomials with Fraction coefficients
held in dicts, and formats floats with repr as a CSV row does.  It
prints how long that arithmetic took; the rest of its spawn-to-exit time
is start-up and imports.  The benchmark runs it right before and right
after every timed process and divides that process's time by the mean
of the matching part of the two, which cancels the slow and fast spells
of a shared machine (see bench/README.md).
"""

import hashlib
import sys
from fractions import Fraction
from time import perf_counter

import numpy

# Sizes that keep one run near 0.55 s on a 2-vCPU Xeon: 0.35 s of exact and
# float arithmetic after 0.2 s of start-up and the numpy import.
POLY_ROUNDS = 40
FLOAT_ROWS = 40_000


def poly_mul(a: dict, b: dict, max_degree: int) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            if sum(e) <= max_degree:
                c = out.get(e, 0) + ca * cb
                if c:
                    out[e] = c
                else:
                    out.pop(e, None)
    return out


def main() -> str:
    digest = hashlib.sha256()
    factor = {(1, 0, 0): Fraction(1, 3), (0, 1, 0): Fraction(-2, 5),
              (0, 0, 1): Fraction(3, 7), (0, 0, 0): Fraction(1, 11)}
    poly = {(0, 0, 0): Fraction(1)}
    for _ in range(POLY_ROUNDS):
        poly = poly_mul(poly, factor, max_degree=12)
    for exponent in sorted(poly):
        digest.update(f"{exponent}:{poly[exponent]}\n".encode())
    grid = numpy.linspace(0.0, 1.0, FLOAT_ROWS)
    rows = [f"{x!r},{y!r}" for x, y in zip(grid.tolist(), numpy.sin(grid * 7.0).tolist())]
    digest.update("\n".join(rows).encode())
    return digest.hexdigest()


if __name__ == "__main__":
    begin = perf_counter()
    checksum = main()
    print(checksum, perf_counter() - begin)
    sys.exit(0)
