import sys

from hamdec.flows import Dinic


def test_augmenting_path_beyond_recursion_limit():
    n = sys.getrecursionlimit() + 100
    net = Dinic(n)
    for v in range(n - 1):
        net.add_edge(v, v + 1, 1)
    assert net.max_flow(0, n - 1) == 1
