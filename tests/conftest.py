import pytest

from varikon import box, groups, solver, words


@pytest.fixture(scope="session")
def distance_table():
    return groups.build_distance_table()


@pytest.fixture(scope="session")
def mode_tables(distance_table):
    """Each target mode's distance table, the strict one shared."""
    return {mode: distance_table if mode == "strict"
            else groups.build_distance_table(mode) for mode in solver.MODES}


@pytest.fixture(scope="session")
def center_elements(distance_table):
    return groups.center(distance_table)


@pytest.fixture(scope="session")
def reachable_set():
    return box.enumerate_reachable()


@pytest.fixture(scope="session")
def a5_table():
    return words.build_a5_table()


@pytest.fixture(scope="session")
def a6_table():
    return words.build_a6_table()


@pytest.fixture(scope="session")
def box_solver():
    return solver.Solver()
