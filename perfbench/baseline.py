"""Print the ROADMAP baseline rows from the committed seed-0 results.

    python3 perfbench/baseline.py [results directory, default perfbench/results]

Reads the traced (trace 1) and untraced (trace 0) run records that run.py
writes, as committed under perfbench/results, and prints gradient applies
per minimize_cone iteration, merit mode on the 1D solves, the 2D prepare
split, the gradient-table size and the end-to-end numbers per workload.
"""

import json
import sys
from pathlib import Path


def load(directory: Path, workload: str, trace: int) -> dict:
    record = json.loads((directory / f"{workload}-seed0-trace{trace}.json").read_text())
    return {k: m["value"] for k, m in record["result"]["metrics"].items()}


def main(argv) -> int:
    directory = Path(argv[0]) if argv else Path(__file__).with_name("results")
    names = ("sweep-mpass-1d", "solve-2d")
    layer = {w: load(directory, w, 1) for w in names}
    e2e = {w: load(directory, w, 0) for w in names}
    print("workload  wall_s  setup_s  solve_s  peak_rss_mb  success_frac")
    for w in names:
        m = e2e[w]
        print(f"{w}  {m['wall_s']:.2f}  {m['setup_s']:.2f}  {m['solve_s']:.2f}  "
              f"{m['peak_rss_mb']:.0f}  {m['success_frac']:.3f}")
    for w in names:
        m = layer[w]
        print(f"{w}: {m['energy.grad_apps_per_iter']:.2f} gradient applies per minimize_cone "
              f"iteration ({m['solvers.minimize_cone.iterations']:.0f} iterations); merit mode in "
              f"{m['solvers.merit_mode_frac'] * m['solvers.minimize_cone.calls']:.0f} of "
              f"{m['solvers.minimize_cone.calls']:.0f} minimize_cone calls; gradient table "
              f"{m['fracops.table_mb']:.2f} MB (computed)")
    # the split is taken from one traced round (the one with the median
    # prepare time), since medians of the parts need not add up
    rounds = json.loads((directory / "solve-2d-seed0-trace1.json").read_text())["traced_rounds"]
    m = sorted(rounds, key=lambda r: r["experiments.prepare.s"])[(len(rounds) - 1) // 2]
    print(f"solve-2d prepare {m['experiments.prepare.s']:.2f} s = assembly "
          f"{m['fracops.assemble_s']:.2f} s + eigenpair {m['spectral.first_eigenpair.s']:.2f} s "
          f"+ other {m['experiments.prepare.s'] - m['fracops.assemble_s'] - m['spectral.first_eigenpair.s']:.2f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
