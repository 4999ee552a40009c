"""Follower network over users who repeatedly shared scored links.

Edges point follower -> followee.  The graph keeps users with at least
``min_links`` scored shares and is restricted to the largest connected
component of its undirected projection; exports carry follower_count so
external tools can size nodes by audience.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from .errors import DataError, read_csv
from .exposure import UserProfile

DEFAULT_MIN_LINKS = 2

HIGH_SHARER = "high_sharer"
LOW_SHARER = "low_sharer"
UNCLASSIFIED = "unclassified"


@dataclass
class GraphNode:
    """A user in the graph, keyed by user id in ``FollowerGraph.nodes``."""

    profile: UserProfile
    node_class: str = UNCLASSIFIED


@dataclass
class FollowerGraph:
    nodes: dict[str, GraphNode] = field(default_factory=dict)
    edges: list[tuple[str, str]] = field(default_factory=list)
    dropped_edges: int = 0

    def __post_init__(self):
        for follower, followee in self.edges:
            if follower not in self.nodes or followee not in self.nodes:
                raise DataError(
                    f"edge {follower}->{followee} references a missing node"
                )


def read_followers_csv(path: str | Path) -> list[tuple[str, str]]:
    """Edge list follower_id,followee_id; the header row is optional."""
    return read_csv(path, ("follower_id", "followee_id"), tuple, header_optional=True)


def _components(
    members: Iterable[str], adjacency: dict[str, set[str]]
) -> list[list[str]]:
    seen: set[str] = set()
    components: list[list[str]] = []
    for start in sorted(members):
        if start in seen:
            continue
        queue = deque([start])
        seen.add(start)
        component = []
        while queue:
            node = queue.popleft()
            component.append(node)
            for neighbor in adjacency.get(node, ()):
                if neighbor not in seen:
                    seen.add(neighbor)
                    queue.append(neighbor)
        components.append(sorted(component))
    return components


def build_follower_graph(
    edges: Sequence[tuple[str, str]],
    profiles: dict[str, UserProfile],
    min_links: int = DEFAULT_MIN_LINKS,
) -> FollowerGraph:
    """Filter to users with >= min_links scored shares, then keep the
    largest connected component of the undirected projection.

    Edges touching excluded or unknown users are dropped and counted.
    Component-size ties keep the component whose smallest user_id sorts
    first.  An empty result is a valid empty graph.
    """
    eligible = {
        user_id
        for user_id, profile in profiles.items()
        if profile.scored_shares >= min_links
    }
    kept: list[tuple[str, str]] = []
    dropped = 0
    for follower, followee in edges:
        if follower in eligible and followee in eligible and follower != followee:
            kept.append((follower, followee))
        else:
            dropped += 1
    if not eligible:
        return FollowerGraph(nodes={}, edges=[], dropped_edges=dropped)
    adjacency: dict[str, set[str]] = {u: set() for u in eligible}
    for follower, followee in kept:
        adjacency[follower].add(followee)
        adjacency[followee].add(follower)
    # _components discovers components in order of their smallest member,
    # and max keeps the first of the largest, which applies the tie rule.
    best = max(_components(eligible, adjacency), key=len)
    in_lcc = set(best)
    nodes = {u: GraphNode(profile=profiles[u]) for u in best}
    lcc_edges = [
        (follower, followee)
        for follower, followee in kept
        if follower in in_lcc and followee in in_lcc
    ]
    return FollowerGraph(nodes=nodes, edges=lcc_edges, dropped_edges=dropped)


def classify_nodes(graph: FollowerGraph) -> FollowerGraph:
    """Assign each node's sharing class in place.

    high_sharer: >= 2 high-bucket shares and no low-bucket shares.
    low_sharer: >= 2 low-bucket shares and no high-bucket shares.
    Everyone else stays unclassified.
    """
    for node in graph.nodes.values():
        counts = node.profile.bucket_counts
        is_high = counts["high"] >= 2 and counts["low"] == 0
        is_low = counts["low"] >= 2 and counts["high"] == 0
        if is_high:
            node.node_class = HIGH_SHARER
        elif is_low:
            node.node_class = LOW_SHARER
        else:
            node.node_class = UNCLASSIFIED
    return graph


def _escape(text: str) -> str:
    """``xml.sax.saxutils.escape``: &, > and < as entities.  Importing
    saxutils also loads urllib.request, http.client, ssl and email."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _quoteattr(text: str) -> str:
    """``xml.sax.saxutils.quoteattr``: ``text`` escaped, with newline,
    carriage return and tab as character references, in double quotes, or
    in single quotes when it holds a double quote but no single one."""
    text = _escape(text).replace("\n", "&#10;").replace("\r", "&#13;")
    text = text.replace("\t", "&#9;")
    if '"' not in text:
        return f'"{text}"'
    if "'" not in text:
        return f"'{text}'"
    return '"%s"' % text.replace('"', "&quot;")


def _graphml(graph: FollowerGraph) -> str:
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">',
        '  <key id="d0" for="node" attr.name="user_id" attr.type="string"/>',
        '  <key id="d1" for="node" attr.name="follower_count" attr.type="long"/>',
        '  <key id="d2" for="node" attr.name="class" attr.type="string"/>',
        '  <graph id="followers" edgedefault="directed">',
    ]
    for user_id in sorted(graph.nodes):
        node = graph.nodes[user_id]
        lines.append(f"    <node id={_quoteattr(user_id)}>")
        lines.append(f"      <data key=\"d0\">{_escape(user_id)}</data>")
        lines.append(f"      <data key=\"d1\">{node.profile.follower_count}</data>")
        lines.append(f"      <data key=\"d2\">{_escape(node.node_class)}</data>")
        lines.append("    </node>")
    for follower, followee in sorted(graph.edges):
        lines.append(
            f"    <edge source={_quoteattr(follower)} target={_quoteattr(followee)}/>"
        )
    lines.append("  </graph>")
    lines.append("</graphml>")
    return "\n".join(lines) + "\n"


def _dot_quote(value: str) -> str:
    return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _dot(graph: FollowerGraph) -> str:
    lines = ["digraph followers {"]
    for user_id in sorted(graph.nodes):
        node = graph.nodes[user_id]
        lines.append(
            f"  {_dot_quote(user_id)} [follower_count={node.profile.follower_count}, "
            f"class={_dot_quote(node.node_class)}];"
        )
    for follower, followee in sorted(graph.edges):
        lines.append(f"  {_dot_quote(follower)} -> {_dot_quote(followee)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_graph(graph: FollowerGraph, format: str) -> str:
    """Serialize to "graphml" or "dot"; nodes carry user_id,
    follower_count (the size attribute), and class."""
    if format == "graphml":
        return _graphml(graph)
    if format == "dot":
        return _dot(graph)
    raise DataError(f"unknown graph format {format!r} (expected graphml or dot)")
