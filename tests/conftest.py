import pytest

from raagvcd.graph_core import DefiningGraph
from raagvcd.corpus import spider


@pytest.fixture
def g_p5() -> DefiningGraph:
    """Path a-b-c-d-e."""
    return DefiningGraph.from_edges([("a", "b"), ("b", "c"), ("c", "d"), ("d", "e")])


@pytest.fixture
def g_c5l() -> DefiningGraph:
    """5-cycle v1..v5 with a leaf u at v1."""
    return DefiningGraph.from_edges(
        [("v1", "v2"), ("v2", "v3"), ("v3", "v4"), ("v4", "v5"), ("v5", "v1"), ("v1", "u")]
    )


@pytest.fixture
def g_grid() -> DefiningGraph:
    """3x3 grid: g<row><col> adjacent to its horizontal and vertical neighbors."""
    edges = []
    for r in range(3):
        for c in range(3):
            if c < 2:
                edges.append((f"g{r}{c}", f"g{r}{c + 1}"))
            if r < 2:
                edges.append((f"g{r}{c}", f"g{r + 1}{c}"))
    return DefiningGraph.from_edges(edges)


@pytest.fixture
def g_f3() -> DefiningGraph:
    """Edgeless graph on three nodes: the free group of rank three."""
    return DefiningGraph(("x", "y", "z"), frozenset())


@pytest.fixture
def g_square() -> DefiningGraph:
    return DefiningGraph.from_edges([("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])


@pytest.fixture
def g_spider() -> DefiningGraph:
    """Center with three legs of two edges each."""
    return spider()


@pytest.fixture
def g_star() -> DefiningGraph:
    return DefiningGraph.from_edges([("a", "b"), ("a", "c"), ("a", "d")])


@pytest.fixture
def skewed_rho(monkeypatch):
    """Make ``psigma_generators`` build each ``rho_i`` as ``x_i -> x_i x2``
    instead of ``x_i -> x_i x1``, so that with ``k >= 2`` it fails to
    commute with ``gamma_2``."""
    from raagvcd import psigma

    real = psigma._flanking

    def skewed(g, left, nodes, right, inverse=True):
        if right and not left:  # rho_i: x_i -> x_i x1, built from codes
            right = (g.code["x2"],)
        return real(g, left, nodes, right, inverse)

    monkeypatch.setattr(psigma, "_flanking", skewed)
