import random
from collections import deque
from xml.sax import saxutils

import pytest
from hypothesis import given, settings, strategies as st

from webcred.errors import DataError
from webcred.exposure import UserProfile
from webcred.graph import (
    HIGH_SHARER,
    LOW_SHARER,
    UNCLASSIFIED,
    FollowerGraph,
    _escape,
    _quoteattr,
    build_follower_graph,
    classify_nodes,
    export_graph,
    read_followers_csv,
)

nx = pytest.importorskip("networkx")


def make_profile(user_id, followers=0, low=0, medium=0, high=0):
    scores = [1] * low + [3] * medium + [6] * high
    return UserProfile(
        user_id=user_id,
        follower_count=followers,
        shared_scores=scores,
        bucket_counts={"low": low, "medium": medium, "high": high},
    )


def lcc_oracle(eligible, kept_edges):
    """Largest undirected component by BFS; ties keep the component
    whose smallest member sorts first."""
    adjacency = {u: set() for u in eligible}
    for a, b in kept_edges:
        adjacency[a].add(b)
        adjacency[b].add(a)
    seen = set()
    components = []
    for start in eligible:
        if start in seen:
            continue
        seen.add(start)
        queue = deque([start])
        component = set()
        while queue:
            node = queue.popleft()
            component.add(node)
            for neighbor in adjacency[node]:
                if neighbor not in seen:
                    seen.add(neighbor)
                    queue.append(neighbor)
        components.append(component)
    if not components:
        return set()
    return min(components, key=lambda c: (-len(c), min(c)))


def hand_fixture():
    """Twelve users: every node class, an ineligible pair, and a small
    second component that the LCC rule must discard."""
    profiles = {
        "h1": make_profile("h1", followers=900, high=3),
        "h2": make_profile("h2", followers=50, high=2),
        "h3": make_profile("h3", followers=7000, high=2, medium=1),
        "l1": make_profile("l1", followers=10, low=2),
        "l2": make_profile("l2", followers=250, low=4),
        "m1": make_profile("m1", followers=5, medium=2),
        "mix1": make_profile("mix1", followers=80, high=2, low=1),
        "mix2": make_profile("mix2", followers=3, high=1, medium=1),
        "inel1": make_profile("inel1", followers=99, high=1),
        "inel2": make_profile("inel2", followers=1),
        "s1": make_profile("s1", followers=40, low=3),
        "s2": make_profile("s2", followers=60, high=2),
    }
    edges = [
        ("h1", "h2"),
        ("h2", "h3"),
        ("l1", "h1"),
        ("l2", "l1"),
        ("m1", "l2"),
        ("mix1", "m1"),
        ("mix2", "mix1"),
        ("s1", "s2"),          # second component, size 2
        ("inel1", "h1"),       # dropped: follower below min_links
        ("h2", "inel2"),       # dropped: followee below min_links
        ("h3", "h3"),          # dropped: self-loop
        ("nobody", "h1"),      # dropped: unknown user
    ]
    return profiles, edges


class TestBuildFollowerGraph:
    def test_hand_fixture_keeps_main_component(self):
        profiles, edges = hand_fixture()
        graph = build_follower_graph(edges, profiles)
        assert sorted(graph.nodes) == [
            "h1", "h2", "h3", "l1", "l2", "m1", "mix1", "mix2",
        ]
        assert graph.edges == [
            ("h1", "h2"),
            ("h2", "h3"),
            ("l1", "h1"),
            ("l2", "l1"),
            ("m1", "l2"),
            ("mix1", "m1"),
            ("mix2", "mix1"),
        ]
        assert graph.dropped_edges == 4
        assert graph.nodes["h3"].profile is profiles["h3"]

    def test_matches_bfs_oracle_on_random_graphs(self):
        rng = random.Random(20260814)
        for trial in range(30):
            n_users = rng.randrange(2, 300)
            users = [f"u{i:03d}" for i in range(n_users)]
            profiles = {
                u: make_profile(
                    u,
                    followers=rng.randrange(1000),
                    low=rng.randrange(3),
                    high=rng.randrange(3),
                )
                for u in users
            }
            n_edges = rng.randrange(0, 3 * n_users)
            edges = []
            for _ in range(n_edges):
                a = rng.choice(users + ["ghost"])
                b = rng.choice(users + ["ghost"])
                edges.append((a, b))

            graph = build_follower_graph(edges, profiles, min_links=2)

            eligible = {u for u, p in profiles.items() if p.scored_shares >= 2}
            kept = [
                (a, b)
                for a, b in edges
                if a in eligible and b in eligible and a != b
            ]
            want_lcc = lcc_oracle(eligible, kept)
            assert set(graph.nodes) == want_lcc, f"trial {trial}"
            assert graph.edges == [
                (a, b) for a, b in kept if a in want_lcc and b in want_lcc
            ]
            assert graph.dropped_edges == len(edges) - len(kept)

    def test_component_size_tie_keeps_smallest_member(self):
        profiles = {u: make_profile(u, high=2) for u in ("a", "b", "y", "z")}
        graph = build_follower_graph([("y", "z"), ("b", "a")], profiles)
        assert sorted(graph.nodes) == ["a", "b"]

    def test_parallel_edges_are_kept(self):
        profiles = {u: make_profile(u, low=2) for u in ("a", "b")}
        edges = [("a", "b"), ("a", "b"), ("b", "a")]
        graph = build_follower_graph(edges, profiles)
        assert graph.edges == edges

    def test_no_eligible_users_gives_empty_graph(self):
        profiles = {"a": make_profile("a", high=1), "b": make_profile("b")}
        graph = build_follower_graph([("a", "b")], profiles)
        assert graph.nodes == {}
        assert graph.edges == []
        assert graph.dropped_edges == 1

    def test_min_links_threshold_is_inclusive(self):
        profiles = {
            "a": make_profile("a", low=3),
            "b": make_profile("b", low=2),
        }
        graph = build_follower_graph([("a", "b")], profiles, min_links=3)
        assert sorted(graph.nodes) == ["a"]
        assert graph.dropped_edges == 1

    def test_edge_referencing_missing_node_rejected(self):
        only_a = build_follower_graph([], {"a": make_profile("a", low=2)}).nodes
        with pytest.raises(DataError):
            FollowerGraph(nodes=only_a, edges=[("a", "b")])


class TestClassifyNodes:
    def test_hand_fixture_covers_all_classes(self):
        profiles, edges = hand_fixture()
        graph = classify_nodes(build_follower_graph(edges, profiles))
        classes = {u: n.node_class for u, n in graph.nodes.items()}
        assert classes == {
            "h1": HIGH_SHARER,
            "h2": HIGH_SHARER,
            "h3": HIGH_SHARER,
            "l1": LOW_SHARER,
            "l2": LOW_SHARER,
            "m1": UNCLASSIFIED,
            "mix1": UNCLASSIFIED,   # two high shares spoiled by one low
            "mix2": UNCLASSIFIED,   # only one high share
        }

    def test_classification_boundaries(self):
        cases = [
            (dict(high=2), HIGH_SHARER),
            (dict(high=2, medium=5), HIGH_SHARER),
            (dict(low=2), LOW_SHARER),
            (dict(high=1, low=1), UNCLASSIFIED),
            (dict(high=2, low=2), UNCLASSIFIED),
            (dict(medium=9), UNCLASSIFIED),
        ]
        for kwargs, want in cases:
            profiles = {"a": make_profile("a", **kwargs), "b": make_profile("b", medium=2)}
            graph = classify_nodes(build_follower_graph([("a", "b")], profiles))
            assert graph.nodes["a"].node_class == want, kwargs

    def test_returns_same_graph_object(self):
        profiles = {"a": make_profile("a", low=2), "b": make_profile("b", low=2)}
        graph = build_follower_graph([("a", "b")], profiles)
        assert classify_nodes(graph) is graph


class TestGraphmlExport:
    def test_round_trip_through_networkx(self):
        profiles, edges = hand_fixture()
        graph = classify_nodes(build_follower_graph(edges, profiles))
        parsed = nx.parse_graphml(export_graph(graph, "graphml"))
        assert isinstance(parsed, nx.DiGraph)
        assert set(parsed.nodes) == set(graph.nodes)
        assert set(parsed.edges) == set(graph.edges)
        for user_id, node in graph.nodes.items():
            attrs = parsed.nodes[user_id]
            assert attrs["user_id"] == user_id
            assert attrs["follower_count"] == node.profile.follower_count
            assert attrs["class"] == node.node_class

    def test_special_characters_survive_round_trip(self):
        weird = 'u "quoted" & <tagged>'
        profiles = {
            weird: make_profile(weird, followers=12, high=2),
            "plain": make_profile("plain", low=2),
        }
        graph = classify_nodes(build_follower_graph([(weird, "plain")], profiles))
        parsed = nx.parse_graphml(export_graph(graph, "graphml"))
        assert set(parsed.nodes) == {weird, "plain"}
        assert parsed.nodes[weird]["user_id"] == weird
        assert parsed.nodes[weird]["class"] == HIGH_SHARER

    def test_empty_graph_is_valid_graphml(self):
        parsed = nx.parse_graphml(export_graph(FollowerGraph(), "graphml"))
        assert len(parsed.nodes) == 0 and len(parsed.edges) == 0

    def test_output_is_deterministic(self):
        profiles, edges = hand_fixture()
        graph = classify_nodes(build_follower_graph(edges, profiles))
        assert export_graph(graph, "graphml") == export_graph(graph, "graphml")


class TestDotExport:
    def test_golden_output(self):
        profiles = {
            "amy": make_profile("amy", followers=70, high=2),
            "bob": make_profile("bob", followers=9, low=2),
        }
        graph = classify_nodes(build_follower_graph([("bob", "amy")], profiles))
        assert export_graph(graph, "dot") == (
            "digraph followers {\n"
            '  "amy" [follower_count=70, class="high_sharer"];\n'
            '  "bob" [follower_count=9, class="low_sharer"];\n'
            '  "bob" -> "amy";\n'
            "}\n"
        )

    def test_quotes_are_escaped(self):
        weird = 'say "hi"'
        profiles = {
            weird: make_profile(weird, high=2),
            "b": make_profile("b", low=2),
        }
        graph = build_follower_graph([(weird, "b")], profiles)
        out = export_graph(graph, "dot")
        assert '"say \\"hi\\""' in out

    def test_unknown_format_rejected(self):
        with pytest.raises(DataError):
            export_graph(FollowerGraph(), "gexf")


class TestReadFollowersCsv:
    def test_header_row_is_skipped(self, tmp_path):
        path = tmp_path / "followers.csv"
        path.write_text("follower_id,followee_id\nu1,u2\nu3,u1\n")
        assert read_followers_csv(path) == [("u1", "u2"), ("u3", "u1")]

    def test_headerless_file_keeps_first_row(self, tmp_path):
        path = tmp_path / "followers.csv"
        path.write_text("u1,u2\nu3,u1\n")
        assert read_followers_csv(path) == [("u1", "u2"), ("u3", "u1")]

    def test_header_like_row_after_first_line_is_data(self, tmp_path):
        path = tmp_path / "followers.csv"
        path.write_text("u1,u2\nfollower_id,followee_id\n")
        assert read_followers_csv(path) == [
            ("u1", "u2"),
            ("follower_id", "followee_id"),
        ]

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "followers.csv"
        path.write_text("u1,u2\n\nu3,u4\n")
        assert read_followers_csv(path) == [("u1", "u2"), ("u3", "u4")]

    def test_wrong_field_count_rejected(self, tmp_path):
        path = tmp_path / "followers.csv"
        path.write_text("u1,u2,extra\n")
        with pytest.raises(DataError):
            read_followers_csv(path)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(text=st.text(alphabet="&<>\"'\n\r\tab;#", max_size=30))
def test_xml_escapes_match_saxutils(text):
    assert _escape(text) == saxutils.escape(text)
    assert _quoteattr(text) == saxutils.quoteattr(text)
