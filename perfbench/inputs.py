"""Write one workload's inputs: a source CSV and a JSON p-mapping.

Run as its own process so the program under test receives only files::

    python3 perfbench/inputs.py --rows 2000 --seed 7 --out DIR

The table is the paper's Section V synthetic source (``a1..a8`` REAL
columns plus an ``id``); the p-mapping resolves the mediated attribute
``value`` of relation ``T`` five ways.  The same seed writes the same
files.
"""

from __future__ import annotations

import argparse
import os
import sys

ATTRIBUTES = 8
MAPPINGS = 5
RELATION = "T"


def paths(out: str) -> tuple[str, str]:
    return os.path.join(out, "source.csv"), os.path.join(out, "mapping.json")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    from repro.data import synthetic
    from repro.schema.serialize import save_pmapping
    from repro.storage.csv_io import save_table_csv

    source = synthetic.source_relation(ATTRIBUTES)
    table = synthetic.generate_source_table(
        args.rows, ATTRIBUTES, seed=args.seed, relation=source
    )
    pmapping = synthetic.generate_pmapping(
        source,
        MAPPINGS,
        seed=args.seed + 1,
        target=synthetic.mediated_relation(RELATION),
    )
    data_path, mapping_path = paths(args.out)
    save_table_csv(table, data_path)
    save_pmapping(pmapping, mapping_path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
