"""Builders of sg inputs for the tests: hypergraphs and points files."""

from zncomplex.sg import Hypergraph3, PointConfig


def hypergraph(edges, num_vertices: int | None = None) -> Hypergraph3:
    edge_sets = tuple(frozenset(int(v) for v in e) for e in edges)
    if num_vertices is None:
        num_vertices = max((max(e) for e in edge_sets), default=-1) + 1
    return Hypergraph3(tuple(range(num_vertices)), edge_sets)


def points_to_json(cfg: PointConfig) -> dict:
    """The JSON form that sg.read_points parses."""
    return {"dimension": cfg.dimension,
            "points": [list(p) for p in cfg.points]}
