"""Hybrid topology: mesh shapes, router tree, latency computation."""

import pytest

from repro.errors import TopologyError
from repro.network.topology import build_topology, grid_dimensions


class TestGridDimensions:
    def test_perfect_square(self):
        assert grid_dimensions(16) == (4, 4)

    def test_rectangle(self):
        rows, cols = grid_dimensions(12)
        assert rows * cols == 12

    def test_prime_covers(self):
        rows, cols = grid_dimensions(7)
        assert rows * cols >= 7


class TestMesh:
    def test_line_mesh(self):
        topo = build_topology(5, mesh_kind="line")
        assert topo.are_neighbors(0, 1)
        assert topo.are_neighbors(3, 4)
        assert not topo.are_neighbors(0, 2)

    def test_grid_mesh(self):
        topo = build_topology(9, mesh_kind="grid")
        assert topo.are_neighbors(0, 1)   # horizontal
        assert topo.are_neighbors(0, 3)   # vertical
        assert not topo.are_neighbors(0, 4)

    def test_custom_mesh(self):
        topo = build_topology(4, mesh_kind="custom",
                              mesh_edges=[(0, 3), (1, 2)])
        assert topo.are_neighbors(0, 3)
        assert not topo.are_neighbors(0, 1)

    def test_custom_edge_out_of_range(self):
        with pytest.raises(TopologyError):
            build_topology(3, mesh_kind="custom", mesh_edges=[(0, 9)])

    def test_none_mesh(self):
        topo = build_topology(4, mesh_kind="none")
        assert not topo.are_neighbors(0, 1)

    def test_unknown_mesh_rejected(self):
        with pytest.raises(TopologyError):
            build_topology(4, mesh_kind="torus")


class TestRouterTree:
    def test_single_level(self):
        topo = build_topology(6, fanout=8, mesh_kind="line")
        assert len(topo.routers) == 1
        assert topo.root == 6
        assert topo.children(6) == list(range(6))

    def test_two_levels(self):
        topo = build_topology(20, fanout=4, mesh_kind="line")
        # 20 leaves -> 5 routers -> 2 -> 1: three levels
        assert len(topo.routers) == 5 + 2 + 1
        assert all(c in topo.parent for c in range(20))

    def test_single_controller_gets_root(self):
        topo = build_topology(1)
        assert len(topo.routers) == 1

    def test_balanced_height(self):
        topo = build_topology(64, fanout=8, mesh_kind="line")
        depths = {len(topo.path_to_ancestor(c, topo.root)) - 1
                  for c in range(64)}
        assert depths == {2}

    def test_fanout_validation(self):
        with pytest.raises(TopologyError):
            build_topology(4, fanout=1)


class TestPathsAndLatency:
    def test_common_ancestor_same_subtree(self):
        topo = build_topology(16, fanout=4, mesh_kind="line")
        assert topo.common_ancestor([0, 1]) == topo.parent[0]

    def test_common_ancestor_distant(self):
        topo = build_topology(16, fanout=4, mesh_kind="line")
        assert topo.common_ancestor([0, 15]) == topo.root

    def test_path_to_ancestor(self):
        topo = build_topology(16, fanout=4, mesh_kind="line")
        path = topo.path_to_ancestor(0, topo.root)
        assert path[0] == 0 and path[-1] == topo.root

    def test_not_ancestor_rejected(self):
        topo = build_topology(16, fanout=4, mesh_kind="line")
        other_leaf_parent = topo.parent[15]
        with pytest.raises(TopologyError):
            topo.path_to_ancestor(0, other_leaf_parent)

    def test_neighbor_message_latency(self):
        topo = build_topology(8, mesh_kind="line", neighbor_link_cycles=4)
        assert topo.message_latency_cycles(2, 3) == 4

    def test_remote_message_latency_via_tree(self):
        topo = build_topology(16, fanout=4, mesh_kind="line",
                              router_hop_cycles=8)
        # 0 and 15: up two hops to root, down two hops
        assert topo.message_latency_cycles(0, 15) == 4 * 8

    def test_self_latency_zero(self):
        topo = build_topology(4, mesh_kind="line")
        assert topo.message_latency_cycles(2, 2) == 0

    def test_subtree_controllers(self):
        topo = build_topology(16, fanout=4, mesh_kind="line")
        first = topo.parent[0]
        assert topo.subtree_controllers(first) == [0, 1, 2, 3]
        assert topo.subtree_controllers(topo.root) == list(range(16))

    def test_max_downstream_cycles(self):
        topo = build_topology(16, fanout=4, mesh_kind="line",
                              router_hop_cycles=8)
        assert topo.max_downstream_cycles(topo.root, [0, 5]) == 16
        assert topo.max_downstream_cycles(topo.parent[0], [0, 1]) == 8


_MESHES = [
    dict(mesh_kind="line"),
    dict(mesh_kind="grid"),
    dict(mesh_kind="custom", mesh_edges=[(0, 5), (3, 2), (7, 7), (19, 1)]),
    dict(mesh_kind="none"),
]


@pytest.mark.parametrize("mesh", _MESHES,
                         ids=[m["mesh_kind"] for m in _MESHES])
class TestOrderPins:
    """Orders the simulator depends on: ``ControlSystem`` builds and
    iterates its routers in ``Topology.routers`` order."""

    def test_routers_ascending_root_last(self, mesh):
        topo = build_topology(20, fanout=4, **mesh)
        assert topo.router_base == 20
        assert topo.root == 27
        assert topo.routers == list(range(topo.router_base, topo.root + 1))

    def test_children_sorted(self, mesh):
        topo = build_topology(20, fanout=4, **mesh)
        assert topo.children(topo.root) == [25, 26]
        assert topo.children(20) == [0, 1, 2, 3]
        assert topo.children(24) == [16, 17, 18, 19]
        assert topo.children(0) == []  # controllers are leaves

    def test_subtree_controllers(self, mesh):
        topo = build_topology(20, fanout=4, **mesh)
        assert topo.subtree_controllers(topo.root) == list(range(20))
        assert topo.subtree_controllers(25) == list(range(16))
        assert topo.subtree_controllers(26) == [16, 17, 18, 19]

    def test_neighbors_symmetric_and_irreflexive(self, mesh):
        topo = build_topology(20, fanout=4, **mesh)
        pairs = {(a, b) for a in range(20) for b in range(20)
                 if topo.are_neighbors(a, b)}
        assert pairs == {(b, a) for a, b in pairs}
        assert all(a != b for a, b in pairs)
        if mesh["mesh_kind"] == "custom":
            assert pairs == {(0, 5), (5, 0), (2, 3), (3, 2), (1, 19),
                             (19, 1)}
        elif mesh["mesh_kind"] == "none":
            assert not pairs
        else:
            assert topo.are_neighbors(0, 1) and topo.are_neighbors(1, 0)
