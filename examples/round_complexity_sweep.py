"""The headline experiment as a script: MPC rounds vs. graph size.

A thin front-end over the registered E1 benchmark (``repro.bench``):
sweeps n over well-connected workloads and prints the round counts of the
Theorem 4 pipeline against the Θ(log n) classical algorithms, plus the
paper's predicted shapes.  The sweep itself — workloads, sizes, table,
JSON artifact schema — lives in ``repro.bench.experiments.e01_rounds_vs_n``,
so this script can never drift from what CI measures.

Run:  python examples/round_complexity_sweep.py
"""

from __future__ import annotations

from repro import bench


def main(scale: str = "default") -> dict:
    suite = "smoke" if scale == "small" else "full"
    result = bench.run_case("e01_rounds_vs_n", suite=suite)
    print(bench.render_case(result))

    table = {
        record["n"]: {
            "pipeline": record["pipeline_rounds"],
            "liu_tarjan": record["liu_tarjan_rounds"],
            "random_mate": record["random_mate_rounds"],
        }
        for record in result.records
    }

    print("\nShape check: the pipeline column should be nearly flat "
          "(doubly logarithmic), the baselines should climb with log n.")
    sizes = sorted(table)
    first, last = sizes[0], sizes[-1]
    growth_ours = table[last]["pipeline"] - table[first]["pipeline"]
    growth_base = table[last]["random_mate"] - table[first]["random_mate"]
    print(f"pipeline growth over the sweep : +{growth_ours} rounds")
    print(f"random-mate growth over sweep  : +{growth_base} rounds")
    return table


if __name__ == "__main__":
    main()
