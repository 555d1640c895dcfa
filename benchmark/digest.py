"""Print a sha256 digest of the heuristic solutions, per workload and mode.

    python3 benchmark/digest.py [--seed 1] [--blocks 20]

The first --blocks blocks of the solve workloads' config stream for
--seed (56 configs a block; 360 blocks hold every reachable config once)
are solved with a6 and a5 to each target mode. The move strings, one per
line in stream order, are hashed per mode and method. The digests are
informational, not a gate: a change that keeps the solver's output byte
for byte keeps every digest.
"""

import argparse
import hashlib
import sys

from oracle import Oracle
from run import SRC, config_blocks

WORKLOAD_OF_MODE = {"strict": "solve-strict", "center": "-",
                    "rotation": "solve-rotation"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--blocks", type=int, default=20)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    from varikon import solver

    oracle = Oracle()
    blocks = config_blocks(oracle, args.seed)
    configs = [c for _ in range(args.blocks) for c in next(blocks)]
    s = solver.Solver()
    print(f"seed {args.seed}, {len(configs)} configs")
    for mode, workload in WORKLOAD_OF_MODE.items():
        for method in ("a6", "a5"):
            solve = getattr(s, f"solve_heuristic_{method}")
            text = "".join(solve(c, mode).moves + "\n" for c in configs)
            digest = hashlib.sha256(text.encode()).hexdigest()
            print(f"{workload:<15} {mode:<9} {method}  {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
