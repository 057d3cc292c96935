"""Set-up probe: import the CLI, build every exact table of H^n, print dims.

    PYTHONPATH=src python bench/setup_tables.py 2     # tables of H^2
    PYTHONPATH=src python bench/setup_tables.py 0     # import only

The benchmark times this process from spawn to exit and checks the
printed dimensions against binomial closed forms of its own.
"""

import json
import sys

import heiscalc.cli  # noqa: F401  (the import is part of what is timed)
from heiscalc import rumin


def main(n: int) -> dict:
    if n == 0:
        return {}
    top = 2 * n + 1
    return {
        "I": [rumin.basis_I(k, n).dim for k in range(1, top + 1)],
        "J": [rumin.basis_J(k, n).dim for k in range(1, top + 1)],
        "quotient": [rumin.basis_quotient(k, n).dim for k in range(0, n + 1)],
        "E0": [rumin.basis_E0(k, n).dim for k in range(0, top + 1)],
    }


if __name__ == "__main__":
    print(json.dumps(main(int(sys.argv[1]))))
