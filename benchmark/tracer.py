"""Timing wrappers around the package's public functions.

Installing the tracer replaces each listed function on its module or
class with a wrapper that counts calls and accumulates inclusive time
and self time (inclusive time minus the time of wrapped calls made
inside it). Calls made through module attributes, including calls from
inside the package, go through the wrappers. Hot leaves such as
`box.apply_move` run millions of times per run, so every function is
aggregated rather than kept as individual spans.
"""

import functools
import time

# (module, attribute path, metric name); attribute paths with a dot are
# methods of a class in that module.
WRAPPED = (
    ("perm", "compose", "perm.compose"),
    ("perm", "inverse", "perm.inverse"),
    ("perm", "parity", "perm.parity"),
    ("box", "apply_move", "box.apply_move"),
    ("box", "rank", "box.rank"),
    ("box", "unrank", "box.unrank"),
    ("box", "enumerate_reachable", "box.enumerate_reachable"),
    ("box", "dihedral_check", "box.dihedral_check"),
    ("box", "three_cycle_atoms", "box.three_cycle_atoms"),
    ("fifteen", "apply_move", "fifteen.apply_move"),
    ("fifteen", "three_cycle_family", "fifteen.three_cycle_family"),
    ("groups", "build_distance_table", "groups.build_distance_table"),
    ("groups", "center", "groups.center"),
    ("groups", "subgroup_K", "groups.subgroup_K"),
    ("groups", "verify_K_is_A7", "groups.verify_K_is_A7"),
    ("groups", "verify_center_words", "groups.verify_center_words"),
    ("groups", "verify_structure", "groups.verify_structure"),
    ("words", "build_a5_table", "words.build_a5_table"),
    ("words", "build_a6_table", "words.build_a6_table"),
    ("words", "a5_report", "words.a5_report"),
    ("words", "a6_report", "words.a6_report"),
    ("solver", "Solver.__init__", "solver.Solver.__init__"),
    ("solver", "relabel_map", "solver.relabel_map"),
    ("solver", "Solver.setup_phase", "Solver.setup_phase"),
    ("solver", "Solver.residual_abstract", "Solver.residual_abstract"),
    ("solver", "Solver.solve_heuristic_a6", "Solver.solve_heuristic_a6"),
    ("solver", "Solver.solve_heuristic_a5", "Solver.solve_heuristic_a5"),
    ("solver", "Solver.solve_optimal", "Solver.solve_optimal"),
    ("cli", "main", "cli.main"),
)
FIELDS = ("calls", "s", "self_s")


class Tracer:
    def __init__(self):
        self.stats = {name: [0, 0.0, 0.0] for _, _, name in WRAPPED}
        self.setup_moves = 0
        self.setup_apply_calls = 0
        self._stack = []
        self._restore = []

    def install(self):
        import importlib

        for module_name, path, name in WRAPPED:
            owner = importlib.import_module(f"varikon.{module_name}")
            *classes, attr = path.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            original = owner.__dict__[attr]
            self._restore.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))
        self._count_setup_work()

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _wrap(self, name, fn):
        rec = self.stats[name]
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - stack.pop()
                if stack:
                    stack[-1] += dt
        return traced

    def _count_setup_work(self):
        """Count the setup letters emitted and the `box.apply_move` calls
        made inside `Solver.setup_phase`, whose ratio is the setup
        search's useful share."""
        from varikon.solver import Solver

        traced = Solver.setup_phase
        apply_calls = self.stats["box.apply_move"]

        @functools.wraps(traced)
        def counted(solver_self, *args, **kwargs):
            before = apply_calls[0]
            result = traced(solver_self, *args, **kwargs)
            self.setup_apply_calls += apply_calls[0] - before
            self.setup_moves += len(result[0])
            return result
        Solver.setup_phase = counted

    def snapshot(self):
        """Plain-data copy of the counters, mergeable across processes."""
        return {"stats": {k: list(v) for k, v in self.stats.items()},
                "setup_moves": self.setup_moves,
                "setup_apply_calls": self.setup_apply_calls}


def merge(total, part):
    for name, values in part["stats"].items():
        rec = total["stats"].setdefault(name, [0, 0.0, 0.0])
        for i, v in enumerate(values):
            rec[i] += v
    total["setup_moves"] += part["setup_moves"]
    total["setup_apply_calls"] += part["setup_apply_calls"]


def layer_metrics(snap):
    """Per-function `.calls`, `.s`, `.self_s` plus the setup-search
    counters, as metric name -> value."""
    out = {}
    for name, values in snap["stats"].items():
        for field, v in zip(FIELDS, values):
            out[f"{name}.{field}"] = v
    out["solver.setup_moves"] = snap["setup_moves"]
    out["solver.setup_useful_ratio"] = (
        snap["setup_moves"] / snap["setup_apply_calls"]
        if snap["setup_apply_calls"] else 0.0)
    return out
