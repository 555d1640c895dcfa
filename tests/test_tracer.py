"""The benchmark's tracer wraps package functions by name: a refactor that
drops or renames one of them must fail the package's own tests too."""

import importlib
import importlib.util
import random
from pathlib import Path

from varikon import box, solver

TRACER = Path(__file__).resolve().parents[1] / "benchmark" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(module_name, path):
    owner = importlib.import_module(f"varikon.{module_name}")
    *classes, attr = path.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    return owner.__dict__[attr]


def test_tracer_installs_and_uninstalls():
    tracer = _load_tracer()
    originals = {name: _resolve(module, path)
                 for module, path, name in tracer.WRAPPED}
    originals["setup_phase"] = solver.Solver.__dict__["setup_phase"]
    t = tracer.Tracer()
    try:
        t.install()
        s = solver.Solver()
        c = box.parse_config("1,3,2,4,5,7,6,_")
        s.solve_heuristic_a5(c, "rotation")
        word, rot, a = s.setup_phase(c, "rotation")
        assert s.residual_abstract(box.apply_word(c, word), rot) == a
    finally:
        t.uninstall()
    stats = t.snapshot()["stats"]
    for name in ("solver.Solver.__init__", "Solver.solve_heuristic_a5",
                 "Solver.residual_abstract"):
        assert stats[name][0] == 1, name
    assert stats["Solver.setup_phase"][0] == 2
    for module, path, name in tracer.WRAPPED:
        assert _resolve(module, path) is originals[name], name
    assert solver.Solver.__dict__["setup_phase"] is originals["setup_phase"]


def test_tracer_counts_the_setup_words_it_sees():
    # the benchmark's setup_moves metric reads the word that setup_phase
    # returns first, whether a solve or the caller asks for the setup
    tracer = _load_tracer()
    t = tracer.Tracer()
    rng = random.Random(45)
    configs = [box.unrank(rng.randrange(box.N_REACHABLE)) for _ in range(40)]
    seen = []
    try:
        t.install()
        s = solver.Solver()
        for c in configs:
            for mode in solver.MODES:
                seen.append(s.setup_phase(c, mode)[0])
                seen.append(s.solve_heuristic_a6(c, mode).phases[0][1])
    finally:
        t.uninstall()
    assert t.setup_moves == sum(map(len, seen)) > 0
    assert t.snapshot()["stats"]["Solver.setup_phase"][0] == len(seen)
