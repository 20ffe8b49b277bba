"""Hypergraph model: parsing, validation, incidence structures, duality."""

import hashlib
import json
import sys

import pytest

from hyperlin import (
    Hypergraph,
    cli,
    graph_projection,
    incidence_graph,
    incidence_matrix,
    parse,
    unit_contraction,
)
from hyperlin.errors import (
    DuplicateHyperedgeSetError,
    EmptyHyperedgeError,
    EmptyStarError,
    HypergraphSyntaxError,
    UnknownLabelError,
    UnknownVertexError,
)
from hyperlin.hypergraph import dual, incidence_graph_adjacency
from hyperlin import fixtures as fx
from conftest import search_draws


def test_from_members_appearance_order():
    h = Hypergraph.from_members([("e1", ["b", "a"]), ("e2", ["c", "a"])])
    assert h.vertices == ("b", "a", "c")
    assert h.edge_labels == ("e1", "e2")


def test_from_members_explicit_order_is_kept():
    h = Hypergraph.from_members([("e", ["y"])], vertices=["x", "y", "z"])
    assert h.vertices == ("x", "y", "z")
    assert h.degree("x") == 0


def test_rejects_member_outside_declared_vertices():
    with pytest.raises(UnknownVertexError):
        Hypergraph.from_members([("e", ["q"])], vertices=["a"])


def test_rejects_empty_hyperedge():
    with pytest.raises(EmptyHyperedgeError):
        Hypergraph.from_members([("e", [])])


def test_rejects_duplicate_member_sets():
    with pytest.raises(DuplicateHyperedgeSetError):
        Hypergraph.from_members([("e1", ["a", "b"]), ("e2", ["b", "a"])])


def test_rejects_duplicate_edge_labels():
    with pytest.raises(HypergraphSyntaxError):
        Hypergraph.from_members([("e", ["a"]), ("e", ["a", "b"])])


def test_rejects_label_naming_a_vertex_and_a_hyperedge():
    text = '{"vertices": ["a", "b", "c"], "hyperedges": {"a": ["a", "b"], "x": ["b", "c"]}}'
    with pytest.raises(HypergraphSyntaxError, match=r"\['a'\]"):
        Hypergraph.from_json(text)
    with pytest.raises(HypergraphSyntaxError):
        Hypergraph.from_members([("b", ["a", "b"])])


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-str digit limit")
def test_from_json_names_a_number_over_the_digit_limit():
    text = '{"vertices": [], "hyperedges": {}, "x": ' + "1" * 5001 + "}"
    with pytest.raises(HypergraphSyntaxError, match="invalid JSON"):
        Hypergraph.from_json(text)


@pytest.mark.parametrize("opener, closer", [("[", "]"), ('{"x": ', "}")])
def test_from_json_names_nesting_too_deep_to_decode(opener, closer):
    text = '{"vertices": [], "hyperedges": {}, "x": ' + opener * 100_000 + "1" + closer * 100_000 + "}"
    with pytest.raises(HypergraphSyntaxError, match="invalid JSON"):
        Hypergraph.from_json(text)


def test_from_json_rejects_repeated_hyperedge_key():
    text = '{"vertices": ["1", "2", "3"], "hyperedges": {"e1": ["1", "2"], "e1": ["2", "3"]}}'
    with pytest.raises(HypergraphSyntaxError, match="'e1'"):
        Hypergraph.from_json(text)


@pytest.mark.parametrize(
    "build, message",
    [
        (
            lambda: parse('{"vertices": ["a", "b"], "hyperedges": {"e": ["a", "a", "b"]}}', "json"),
            "^hyperedge 'e' lists 'a' twice$",
        ),
        (
            lambda: parse("#vertices: a b\nf: a b\ne: a a b\n", "lines"),
            "^line 3: hyperedge 'e' lists 'a' twice$",
        ),
        (
            lambda: Hypergraph(("a", "b"), (("e", ["a", "a", "b"]),)),
            "^hyperedge 'e' lists 'a' twice$",
        ),
        (
            lambda: Hypergraph.from_members([("e", ["a", "a", "b"])]),
            "^hyperedge 'e' lists 'a' twice$",
        ),
    ],
    ids=["json", "lines", "constructor", "from_members"],
)
def test_rejects_a_member_listed_twice_in_one_hyperedge(build, message):
    with pytest.raises(HypergraphSyntaxError, match=message):
        build()


def test_star_degree_members():
    h = fx.hub_cycle()
    assert h.star("5") == frozenset({"e1", "e2", "e3", "e4"})
    assert h.degree("5") == 4
    assert h.members("e5") == frozenset({"1", "2"})
    with pytest.raises(UnknownLabelError):
        h.members("nope")
    with pytest.raises(UnknownLabelError):
        h.star("nope")


def test_is_connected():
    assert fx.hub_cycle().is_connected()
    split = Hypergraph.from_members([("e1", ["a", "b"]), ("e2", ["c", "d"])])
    assert not split.is_connected()


def _union_find_connected(h):
    """Connectivity by a union-find over the member lists."""
    parent = {v: v for v in h.vertices}

    def root(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for _, members in h.hyperedges:
        first, *rest = members
        for v in rest:
            parent[root(v)] = root(first)
    return len({root(v) for v in h.vertices}) <= 1


def test_is_connected_equals_a_union_find_over_the_member_lists():
    edge_cases = [
        Hypergraph((), ()),
        Hypergraph(("a",), ()),
        Hypergraph.from_members([("e", ["b", "c"])], vertices=["a", "b", "c"]),
    ]
    answers = []
    for h in edge_cases + search_draws():
        assert h.is_connected() == _union_find_connected(h), h.to_json_dict()
        answers.append(h.is_connected())
    assert answers[:3] == [True, True, False]
    assert 100 < answers.count(False) < len(answers) - 100


@pytest.mark.parametrize("n", range(1, 7))
def test_nested_chain_is_the_family_its_docstring_names(n):
    verts = [str(i) for i in range(1, n + 1)]
    edges = [(f"e{i}", verts[:i]) for i in range(1, n + 1)]
    assert fx.nested_chain(n) == Hypergraph.from_members(edges, vertices=verts)


def test_nested_chain_needs_one_vertex():
    with pytest.raises(ValueError, match="^need n >= 1$"):
        fx.nested_chain(0)


def test_json_roundtrip_preserves_everything():
    h = fx.unit_blocks()
    again = Hypergraph.from_json(h.to_json())
    assert again == h
    assert again.digest() == h.digest()


def test_digest_distinguishes_hypergraphs():
    assert fx.hub_cycle().digest() != fx.balanced_overlap().digest()


def test_digest_is_stable_across_processes():
    # frozen once from the canonical serialization; guards the file format
    assert fx.hub_cycle().digest() == (
        "746c324e8a67fcf5503e6e08da20d0ac44ae89336bb33770a5801ed2e4ba4d1a"
    )


def test_from_lines_with_header_and_comments():
    text = """
# a comment
#vertices: a b c d
e1: a b
e2: b c
"""
    h = Hypergraph.from_lines(text)
    assert h.vertices == ("a", "b", "c", "d")
    assert h.members("e2") == frozenset({"b", "c"})


def test_from_lines_without_header_uses_appearance_order():
    h = Hypergraph.from_lines("m: z y\nn: x z\n")
    assert h.vertices == ("z", "y", "x")


def test_from_lines_rejects_garbage():
    with pytest.raises(HypergraphSyntaxError):
        Hypergraph.from_lines("no colon here")


@pytest.mark.parametrize(
    "text, message",
    [
        ('["a"]', "^top level must be an object$"),
        ('{"vertices": ["a"]}', "^need 'vertices' and 'hyperedges' keys$"),
        ('{"vertices": ["a", 1], "hyperedges": {}}', "^'vertices' must be a list of strings$"),
        ('{"vertices": ["a"], "hyperedges": [["a"]]}', "^'hyperedges' must be an object$"),
        ('{"vertices": ["a"], "hyperedges": {"e": "a"}}', "^members of 'e' must be a list of strings$"),
    ],
    ids=["top level", "keys", "vertices", "hyperedges", "members"],
)
def test_from_json_names_each_shape_error(text, message):
    with pytest.raises(HypergraphSyntaxError, match=message):
        Hypergraph.from_json(text)


#: (file name, text, error type, message) of each parse error of ``hyperlin check``.
PARSE_ERRORS = [
    ("twice.txt", "#vertices: a b a\ne: a b\n", HypergraphSyntaxError, "line 1: vertex 'a' declared twice"),
    ("colon.txt", "e: a b\nf a b\n", HypergraphSyntaxError, "line 2: expected 'label: members'"),
    ("label.txt", "e: a b\nmy edge: a b\n", HypergraphSyntaxError, "line 2: bad hyperedge label 'my edge'"),
    ("nolabel.txt", ": a b\n", HypergraphSyntaxError, "line 1: bad hyperedge label ''"),
    ("empty.txt", "e: a b\n\nf:\n", EmptyHyperedgeError, "line 3: hyperedge 'f' is empty"),
    ("dup.json", '{"vertices": ["a", "b", "a"], "hyperedges": {}}', HypergraphSyntaxError, "duplicate vertex labels"),
]
PARSE_IDS = ["declared twice", "no colon", "label with a space", "no label", "empty hyperedge", "duplicate vertex"]


@pytest.mark.parametrize("name, text, error, message", PARSE_ERRORS, ids=PARSE_IDS)
def test_parse_names_each_error(name, text, error, message):
    with pytest.raises(error) as raised:
        parse(text, "json" if name.endswith(".json") else "lines")
    assert type(raised.value) is error and str(raised.value) == message


@pytest.mark.parametrize("name, text, error, message", PARSE_ERRORS, ids=PARSE_IDS)
def test_check_exits_one_on_each_parse_error(name, text, error, message, tmp_path, capsys):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    assert cli.main(["check", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"input error: {error.__name__}: {message}\n"


def test_parse_rejects_an_unknown_format():
    with pytest.raises(ValueError, match="^unknown format 'xml'$"):
        parse("e: a b", "xml")


def test_parse_dispatches_on_format():
    h = fx.balanced_overlap()
    assert parse(h.to_json(), "json") == h
    assert parse("e: a b", "lines").n_hyperedges == 1


def test_incidence_matrix_entries():
    h = fx.hub_cycle()
    inc = incidence_matrix(h)
    assert inc.row_labels == h.vertices
    assert inc.col_labels == h.edge_labels
    assert inc.entry("5", "e1") == 1
    assert inc.entry("5", "e5") == 0
    total = sum(sum(inc.row(v).values()) for v in h.vertices)
    assert total == sum(len(m) for _, m in h.hyperedges)


def test_incidence_graph_is_bipartite_with_one_node_per_incidence():
    h = fx.hub_cycle()
    g = incidence_graph(h)
    assert set(g.left) == set(h.vertices)
    assert set(g.right) == set(h.edge_labels)
    assert len(g.edges) == sum(len(m) for _, m in h.hyperedges)
    dot = g.to_dot()
    assert "circle" in dot and "box" in dot


def test_incidence_graph_adjacency_block_structure():
    h = fx.hub_cycle()
    a = incidence_graph_adjacency(h)
    n, m = h.n_vertices, h.n_hyperedges
    assert a.rows == a.cols == n + m
    # vertex-vertex and edge-edge blocks vanish
    for u in h.vertices:
        for v in h.vertices:
            assert a.entry(u, v) == 0
    for e in h.edge_labels:
        for f in h.edge_labels:
            assert a.entry(e, f) == 0
    # the off-diagonal blocks are the incidence matrix and its transpose
    inc = incidence_matrix(h)
    for v in h.vertices:
        for e in h.edge_labels:
            assert a.entry(v, e) == inc.entry(v, e)
            assert a.entry(e, v) == inc.entry(v, e)


def test_dual_transposes_incidence_when_stars_are_distinct():
    h = fx.hub_cycle()
    d = dual(h)
    assert d.vertices == h.edge_labels
    assert d.n_hyperedges == h.n_vertices
    inc_d = incidence_matrix(d)
    inc_t = incidence_matrix(h).transpose()
    for e in h.edge_labels:
        for label, star in zip(d.edge_labels, inc_t.col_labels):
            assert inc_d.entry(e, label) == inc_t.entry(e, star)


def test_dual_merges_equal_stars():
    # vertices 1 and 2 share their star, so the dual keeps one copy
    h = Hypergraph.from_members(
        [("e1", ["1", "2", "3"]), ("e2", ["1", "2", "4"])]
    )
    d = dual(h)
    assert d.n_hyperedges == 3
    assert d.vertices == ("e1", "e2")


def test_dual_rejects_isolated_vertices():
    h = Hypergraph.from_members([("e", ["a"])], vertices=["a", "b"])
    with pytest.raises(EmptyStarError):
        dual(h)


def test_json_format_shape():
    data = json.loads(fx.balanced_overlap().to_json())
    assert set(data) == {"vertices", "hyperedges"}
    assert data["vertices"] == ["1", "2", "3", "4", "5"]
    assert data["hyperedges"]["e1"] == ["1", "2", "3", "5"]


def _quoted_strings(line: str) -> list[str]:
    """The DOT quoted strings of one line, unescaped; IndexError if one is unclosed."""
    out, i = [], 0
    while i < len(line):
        if line[i] != '"':
            i += 1
            continue
        j, chars = i + 1, []
        while line[j] != '"':
            if line[j] == "\\":
                j += 1
            chars.append(line[j])
            j += 1
        out.append("".join(chars))
        i = j + 1
    return out


QUOTED = Hypergraph.from_members([('e"1', ['a"b', "c\\d"]), ("e2", ["c\\d", "x"])])


@pytest.mark.parametrize(
    "writer, names",
    [
        (incidence_graph, {'v_a"b', 'a"b', "v_c\\d", "c\\d", 'e_e"1', 'e"1'}),
        (graph_projection, {'{a"b}', "{c\\d}", "{x}"}),
        (unit_contraction, {'u_{a"b}', '{a"b}', "u_{c\\d}", 'e_e"1', 'e"1'}),
    ],
)
def test_dot_escapes_quotes_and_backslashes_in_labels(writer, names):
    dot = writer(QUOTED).to_dot()
    strings = {s for line in dot.splitlines() for s in _quoted_strings(line)}
    assert names <= strings


#: sha256 of ``to_dot()`` for (incidence graph, unit projection, contraction),
#: recorded before the three writers shared one DOT emitter.
DOT_DIGESTS = {
    "h_a": (
        "1be6a50944bd477a8eb2e6765cbad21ef261aedabb9a516f1e9a18c95e234aca",
        "b9790ca2f79c7e25768f3331b7be94aefa804685807b91db57959d6e488be75d",
        "7619336ac36b94ff956e9a7f34cdadd8652534ed6867cb1150fd4abc3e250a1c",
    ),
    "h_tri_4": (
        "5967b2efd80009418e0ea82c5f63164ae47700d688b00cf583580a392b4841a6",
        "e5dddf51929c901a55f508087c7ce3823fdffd86016c18494f3c47f046675a78",
        "affdb2e9a3ba63e63cf7cfa88bb9e3bd0bfa78328fac8096dbaae07d3dc4c1d9",
    ),
    "h_circ_4": (
        "1ba0909925cfbef0807e25696db2c5456f920de8cedfcb3771fc3c1dab385f95",
        "e5dddf51929c901a55f508087c7ce3823fdffd86016c18494f3c47f046675a78",
        "d02bab4694ddeb47978df685e76513c592e73843df2b6bd52f0914d54fd27dbb",
    ),
    "h_units": (
        "c5f4e21b8a472d8247f358281c1259b501a82610e1dea0897261e1440e33e6fa",
        "4c04410034420eb1e7f2e145ceef47dd3ee565d5c0f9b1bbdf31844f3bf231cd",
        "0488fe043d6a7a9ba4bc7d59ba1828e6b66431dc6812a5d12c5ca0e6b450af58",
    ),
    "h_eq": (
        "b95d3c3f626d3910307fcb2ef7e141197c45c6720e342879e560bee8ede77ab4",
        "7394ba3a8afbd64908a170159107f0b73ca9bf49fb39e58a6b86a2f7bf94bf0d",
        "a312a39de09c1c0aff910190828731fb41be48e69773c289dc140eb98a1c6817",
    ),
    "h_cov_source": (
        "98e49f9125a86b595f9e8ec5040421b80e1bdcb24bfb2db4c64fb5af8724ce29",
        "aa5cd4cd7975e70fd7b7ab2bbd1c950ef6e56b6f3f4a2265cbe836d87fd17ce7",
        "fb39482cb45d9a85e99499b3a365e1f42b929424cf3419513e95719d95d7e3d0",
    ),
    "h_cov_base": (
        "7e5d106b8004402bf7ffceb28b1cfdbdd96ae38676a9439185bfa36acc4e2889",
        "1dc8c6e1e0e823c5d334fffcc4ce9e031f2d2d3a2442717be0b50fe0122c2104",
        "517184d6b65aaa3cf47888e0130f6498de130c620c4e456a5f98cd53ce4a909a",
    ),
    "quoted": (
        "704b9043d7f9b6fdd70527ebf9685dc93f0d03ffc5194b71513b36e1db3b08c0",
        "cb72d7e6eb2ac550f761aa49f07b83f63b32683e87d69b4193d7432579275ae2",
        "60b3519d4d0cb09061f0c6163c54a0d8a781525f7ebe4899f407ee8dfb302231",
    ),
    "empty": (
        "d8ee069e9edeaa06ee9f058b8317683e75cd3fc3f1909eef29878a6de084287c",
        "b8dcb0194f7799006d15cae794ff18504915f74e4d3081d5399466d2fbd373ac",
        "ef6411f0b50cc927a538c3364c6f6f0def3e8e0701a4fbbb5897d9e6bf4837fa",
    ),
}


@pytest.mark.parametrize("name", list(DOT_DIGESTS))
def test_dot_text_is_pinned(name):
    builders = {**fx._FIXTURE_BUILDERS, "quoted": lambda: QUOTED, "empty": lambda: Hypergraph((), ())}
    h = builders[name]()
    digests = tuple(
        hashlib.sha256(writer(h).to_dot().encode("utf-8")).hexdigest()
        for writer in (incidence_graph, graph_projection, unit_contraction)
    )
    assert digests == DOT_DIGESTS[name]
