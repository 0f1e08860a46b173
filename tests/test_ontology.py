import hashlib
import json
import logging

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIXTURE_CLUSTER_SIZES, FIXTURE_MODELS, make_rng, random_parent_map
from suitgraph import OntologyError, UnknownClassError, load_hierarchy
from suitgraph.ontology import ClassHierarchy, ObjectCluster, parse_json_tree, parse_owl_subset

OWL_DOC = """<?xml version="1.0"?>
<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"
         xmlns:rdfs="http://www.w3.org/2000/01/rdf-schema#"
         xmlns:owl="http://www.w3.org/2002/07/owl#">
  <owl:Class rdf:about="http://example.org/onto#fruit">
    <rdfs:subClassOf rdf:resource="http://example.org/onto#thing"/>
  </owl:Class>
  <owl:Class rdf:about="http://example.org/onto#apple">
    <rdfs:subClassOf rdf:resource="http://example.org/onto#fruit"/>
  </owl:Class>
  <owl:Class rdf:about="http://example.org/onto#banana">
    <rdfs:subClassOf rdf:resource="http://example.org/onto#fruit"/>
  </owl:Class>
</rdf:RDF>
"""


# -- json-tree parsing -------------------------------------------------------


def test_parse_json_tree_structure(toy):
    assert toy.root == "thing"
    assert toy.classes == {"thing", "fruit", "apple", "banana"}
    assert toy.children("thing") == ("fruit",)
    assert toy.children("fruit") == ("apple", "banana")
    assert toy.parent("apple") == "fruit"
    assert toy.parent("thing") is None


def test_parse_json_tree_depths(toy):
    assert toy.depth("thing") == 1
    assert toy.depth("fruit") == 2
    assert toy.depth("apple") == 3


def test_duplicate_class_rejected():
    text = '{"name": "a", "children": [{"name": "b"}, {"name": "b"}]}'
    with pytest.raises(OntologyError, match="duplicate class 'b'"):
        parse_json_tree(text)


def test_malformed_json_rejected():
    with pytest.raises(OntologyError, match="malformed json-tree"):
        parse_json_tree("{not json")


def test_missing_name_rejected():
    with pytest.raises(OntologyError, match="missing or empty 'name'"):
        parse_json_tree('{"children": []}')
    with pytest.raises(OntologyError, match="missing or empty 'name'"):
        parse_json_tree('{"name": ""}')


def test_non_object_node_rejected():
    with pytest.raises(OntologyError, match="expected an object"):
        parse_json_tree('{"name": "a", "children": ["b"]}')


def test_children_must_be_array():
    with pytest.raises(OntologyError, match="must be an array"):
        parse_json_tree('{"name": "a", "children": {"name": "b"}}')


# -- direct construction -----------------------------------------------------


def test_multiple_roots_rejected():
    with pytest.raises(OntologyError, match="multiple roots"):
        ClassHierarchy({"a": None, "b": None})


def test_no_root_rejected():
    with pytest.raises(OntologyError, match="no root"):
        ClassHierarchy({"a": "b", "b": "a"})


def test_cycle_rejected():
    with pytest.raises(OntologyError, match="cycle"):
        ClassHierarchy({"r": None, "a": "b", "b": "a"})


def test_undeclared_parent_rejected():
    with pytest.raises(OntologyError, match="not declared"):
        ClassHierarchy({"a": None, "b": "ghost"})


def test_empty_hierarchy_rejected():
    with pytest.raises(OntologyError, match="empty hierarchy"):
        ClassHierarchy({})


# -- owl-subset parsing --------------------------------------------------------


def test_parse_owl_subset_basic():
    h = parse_owl_subset(OWL_DOC)
    assert h.root == "thing"
    assert h.classes == {"thing", "fruit", "apple", "banana"}
    assert h.parent("apple") == "fruit"
    assert h.depth("apple") == 3


def test_owl_equals_json_tree_and_checksum():
    h_owl = parse_owl_subset(OWL_DOC)
    h_json = parse_json_tree(
        '{"name": "thing", "children": [{"name": "fruit", '
        '"children": [{"name": "apple"}, {"name": "banana"}]}]}'
    )
    assert h_owl == h_json
    assert h_owl.checksum() == h_json.checksum()


def test_owl_multiple_parents_rejected():
    doc = OWL_DOC.replace(
        '<owl:Class rdf:about="http://example.org/onto#apple">\n'
        '    <rdfs:subClassOf rdf:resource="http://example.org/onto#fruit"/>',
        '<owl:Class rdf:about="http://example.org/onto#apple">\n'
        '    <rdfs:subClassOf rdf:resource="http://example.org/onto#fruit"/>\n'
        '    <rdfs:subClassOf rdf:resource="http://example.org/onto#thing"/>',
    )
    with pytest.raises(OntologyError, match="multiple parents for class 'apple'"):
        parse_owl_subset(doc)


def test_owl_anonymous_superclass_skipped_with_warning(caplog):
    doc = """<?xml version="1.0"?>
<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"
         xmlns:rdfs="http://www.w3.org/2000/01/rdf-schema#"
         xmlns:owl="http://www.w3.org/2002/07/owl#">
  <owl:Class rdf:about="#apple">
    <rdfs:subClassOf rdf:resource="#fruit"/>
    <rdfs:subClassOf>
      <owl:Restriction/>
    </rdfs:subClassOf>
  </owl:Class>
</rdf:RDF>
"""
    with caplog.at_level(logging.WARNING):
        h = parse_owl_subset(doc)
    assert h.parent("apple") == "fruit"
    assert any("anonymous superclass" in r.message for r in caplog.records)


def test_owl_unrecognized_constructs_warn_not_fail(caplog):
    doc = """<?xml version="1.0"?>
<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"
         xmlns:rdfs="http://www.w3.org/2000/01/rdf-schema#"
         xmlns:owl="http://www.w3.org/2002/07/owl#">
  <owl:ObjectProperty rdf:about="#grasps"/>
  <owl:Class rdf:about="#apple">
    <rdfs:subClassOf rdf:resource="#fruit"/>
    <rdfs:comment>a pomaceous fruit</rdfs:comment>
  </owl:Class>
</rdf:RDF>
"""
    with caplog.at_level(logging.WARNING):
        h = parse_owl_subset(doc)
    assert h.classes == {"apple", "fruit"}
    messages = [r.message for r in caplog.records]
    assert any("ObjectProperty" in m for m in messages)
    assert any("comment" in m for m in messages)


def test_owl_rdf_id_declaration():
    doc = """<?xml version="1.0"?>
<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"
         xmlns:rdfs="http://www.w3.org/2000/01/rdf-schema#"
         xmlns:owl="http://www.w3.org/2002/07/owl#">
  <owl:Class rdf:ID="apple">
    <rdfs:subClassOf rdf:resource="#fruit"/>
  </owl:Class>
</rdf:RDF>
"""
    h = parse_owl_subset(doc)
    assert h.parent("apple") == "fruit"


def test_owl_class_without_identifier_rejected():
    doc = """<?xml version="1.0"?>
<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"
         xmlns:owl="http://www.w3.org/2002/07/owl#">
  <owl:Class/>
</rdf:RDF>
"""
    with pytest.raises(OntologyError, match="without rdf:about or rdf:ID"):
        parse_owl_subset(doc)


def test_owl_duplicate_declaration_rejected():
    doc = """<?xml version="1.0"?>
<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"
         xmlns:owl="http://www.w3.org/2002/07/owl#">
  <owl:Class rdf:about="#apple"/>
  <owl:Class rdf:about="#apple"/>
</rdf:RDF>
"""
    with pytest.raises(OntologyError, match="duplicate class 'apple'"):
        parse_owl_subset(doc)


def test_owl_not_xml_rejected():
    with pytest.raises(OntologyError, match="malformed owl"):
        parse_owl_subset("this is not xml")


# -- similarity oracle values --------------------------------------------------


def test_wup_sibling_value(toy):
    # lcs(apple, banana) = fruit at depth 2; both leaves at depth 3
    assert toy.wup_similarity("apple", "banana") == pytest.approx(2 / 3, abs=1e-15)


def test_wup_ancestor_values(toy):
    assert toy.wup_similarity("apple", "fruit") == pytest.approx(0.8, abs=1e-15)
    assert toy.wup_similarity("apple", "thing") == pytest.approx(0.5, abs=1e-15)


def test_wup_identity(toy):
    for c in toy.classes:
        assert toy.wup_similarity(c, c) == 1.0


def test_wup_symmetry_exhaustive(household):
    for a in household.classes:
        for b in household.classes:
            assert household.wup_similarity(a, b) == household.wup_similarity(b, a)


def test_lcs(toy):
    assert toy.lcs("apple", "banana") == "fruit"
    assert toy.lcs("apple", "fruit") == "fruit"
    assert toy.lcs("apple", "apple") == "apple"
    assert toy.lcs("apple", "thing") == "thing"


def test_household_tie_pair(household):
    # the two candidates for tomato_can are equally similar: exact tie
    a = household.wup_similarity("tomato_can", "chips_can")
    b = household.wup_similarity("tomato_can", "sugar_box")
    assert a == b == pytest.approx(2 / 3, abs=1e-15)


# -- relatives and clusters ------------------------------------------------------


def test_relatives_composition(household):
    rel = household.relatives("apple")
    assert rel == {"banana", "orange", "strawberry", "fruit", "food", "thing"}
    assert "apple" not in rel


def test_relatives_includes_children(household):
    rel = household.relatives("drinkware")
    assert {"mug", "wine_glass"} <= rel


def test_relatives_ancestor_cap(household):
    rel = household.relatives("apple", max_ancestor_hops=1)
    assert rel == {"banana", "orange", "strawberry", "fruit"}


@pytest.mark.parametrize("cap", [-1, -3])
def test_relatives_rejects_negative_cap(household, cap):
    with pytest.raises(ValueError, match="max_ancestor_hops"):
        household.relatives("apple", max_ancestor_hops=cap)
    with pytest.raises(ValueError, match="max_ancestor_hops"):
        household.object_cluster("banana", FIXTURE_MODELS.__contains__, max_ancestor_hops=cap)


def test_relatives_zero_cap_has_no_ancestors(household):
    assert household.relatives("apple", max_ancestor_hops=0) == {"banana", "orange", "strawberry"}


def test_cluster_sizes_match_reference(household):
    for target, size in FIXTURE_CLUSTER_SIZES.items():
        cluster = household.object_cluster(target, FIXTURE_MODELS.__contains__)
        assert len(cluster) == size, (target, sorted(cluster.members))


def test_cluster_members_banana(household):
    cluster = household.object_cluster("banana", FIXTURE_MODELS.__contains__)
    assert cluster.members == {"apple"}


def test_cluster_members_tomato_can(household):
    cluster = household.object_cluster("tomato_can", FIXTURE_MODELS.__contains__)
    assert cluster.members == {"chips_can", "sugar_box"}


def test_cluster_empty_when_no_models(household):
    cluster = household.object_cluster("thing", FIXTURE_MODELS.__contains__)
    assert len(cluster) == 0


def test_cluster_excludes_target(household):
    # apple has a model but is never its own candidate
    cluster = household.object_cluster("banana", FIXTURE_MODELS.__contains__)
    assert "banana" not in cluster.members


def test_object_cluster_target_in_members_rejected():
    with pytest.raises(ValueError, match="must not contain the target"):
        ObjectCluster("a", frozenset({"a", "b"}))


def test_unknown_class_queries(toy):
    for fn in (toy.depth, toy.parent, toy.children, toy.siblings, toy.ancestors, toy.relatives):
        with pytest.raises(UnknownClassError) as exc_info:
            fn("nope")
        assert exc_info.value.class_id == "nope"
    with pytest.raises(UnknownClassError):
        toy.wup_similarity("apple", "nope")
    with pytest.raises(UnknownClassError):
        toy.object_cluster("nope", lambda c: True)


# -- serialization ----------------------------------------------------------------


def test_json_tree_round_trip(household, toy):
    for h in (household, toy):
        assert parse_json_tree(h.to_json_tree()) == h


def test_serialization_canonical_under_child_order():
    a = parse_json_tree('{"name": "r", "children": [{"name": "x"}, {"name": "y"}]}')
    b = parse_json_tree('{"name": "r", "children": [{"name": "y"}, {"name": "x"}]}')
    assert a == b
    assert a.to_json_tree() == b.to_json_tree()
    assert a.checksum() == b.checksum()


def test_checksum_distinguishes_structure():
    a = parse_json_tree('{"name": "r", "children": [{"name": "x"}]}')
    b = parse_json_tree('{"name": "r", "children": [{"name": "y"}]}')
    assert a.checksum() != b.checksum()


def test_load_hierarchy_formats(tmp_path):
    p = tmp_path / "t.json"
    p.write_text('{"name": "a"}', encoding="utf-8")
    assert load_hierarchy(p).root == "a"

    p = tmp_path / "t.owl"
    p.write_text(OWL_DOC, encoding="utf-8")
    assert load_hierarchy(p).root == "thing"

    p = tmp_path / "t.dat"
    p.write_text('{"name": "a"}', encoding="utf-8")
    with pytest.raises(ValueError, match="cannot infer"):
        load_hierarchy(p)


# -- tree properties on random hierarchies ------------------------------------------


@st.composite
def parent_maps(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    parent = {"c0": None}
    for i in range(1, n):
        parent[f"c{i}"] = f"c{draw(st.integers(min_value=0, max_value=i - 1))}"
    return parent


@given(parent_maps())
@settings(max_examples=60)
def test_depth_recurrence(parent):
    h = ClassHierarchy(parent)
    assert h.depth(h.root) == 1
    for c in h.classes:
        p = h.parent(c)
        if p is not None:
            assert h.depth(c) == h.depth(p) + 1


@given(parent_maps())
@settings(max_examples=60)
def test_wup_symmetric_bounded(parent):
    h = ClassHierarchy(parent)
    nodes = sorted(h.classes)
    for a in nodes[:8]:
        for b in nodes[:8]:
            s = h.wup_similarity(a, b)
            assert 0.0 < s <= 1.0
            assert s == h.wup_similarity(b, a)
            assert (s == 1.0) == (a == b)


def reference_wup(h, a, b):
    """Wu-Palmer through a separate lcs walk for the one pair."""
    return 2.0 * h.depth(h.lcs(a, b)) / (h.depth(a) + h.depth(b))


@given(parent_maps(), st.data())
@settings(max_examples=60)
def test_wup_similarities_equal_pairwise_lcs(parent, data):
    h = ClassHierarchy(parent)
    nodes = sorted(h.classes)
    for target in nodes[:8]:
        # every class: the target itself, its ancestors and its descendants among them
        sims = h.wup_similarities(target, nodes)
        assert list(sims) == nodes
        for other in nodes:
            assert sims[other] == reference_wup(h, target, other)
            assert h.wup_similarity(target, other) == sims[other]
    target = data.draw(st.sampled_from(nodes))
    others = data.draw(st.lists(st.sampled_from(nodes), max_size=12))
    sims = h.wup_similarities(target, iter(others))
    assert sims == {o: reference_wup(h, target, o) for o in others}


def test_wup_similarities_deep_owl_chain():
    depth = 3000
    classes = "".join(
        f'<owl:Class rdf:about="#c{i}"><rdfs:subClassOf rdf:resource="#c{i - 1}"/></owl:Class>'
        for i in range(depth - 1, 0, -1)
    )
    h = parse_owl_subset(
        '<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#" '
        'xmlns:rdfs="http://www.w3.org/2000/01/rdf-schema#" '
        f'xmlns:owl="http://www.w3.org/2002/07/owl#">{classes}</rdf:RDF>')
    others = [f"c{i}" for i in range(0, depth, 7)] + [f"c{depth - 1}"]
    for target in ("c0", "c1500", f"c{depth - 1}"):
        sims = h.wup_similarities(target, others)
        assert sims == {o: reference_wup(h, target, o) for o in others}
    assert h.wup_similarities(f"c{depth - 1}", ["c0"])["c0"] == 2.0 / (1 + depth)


def test_wup_similarities_unknown_class(toy):
    for target, others, unknown in (
        ("nope", ["apple"], "nope"),
        ("apple", ["banana", "nope", "also_nope"], "nope"),
        ("apple", ["thing", "also_nope"], "also_nope"),
    ):
        with pytest.raises(UnknownClassError) as exc_info:
            toy.wup_similarities(target, others)
        assert exc_info.value.class_id == unknown
    assert toy.wup_similarities("apple", []) == {}


@given(parent_maps())
@settings(max_examples=60)
def test_round_trip_random_trees(parent):
    h = ClassHierarchy(parent)
    assert parse_json_tree(h.to_json_tree()) == h


def reference_tree_dict(h, name):
    node = {"name": name}
    if h.children(name):
        node["children"] = [reference_tree_dict(h, k) for k in h.children(name)]
    return node


@given(parent_maps())
@settings(max_examples=60)
def test_serialization_matches_json_dumps(parent):
    h = ClassHierarchy(parent)
    tree = reference_tree_dict(h, h.root)
    compact = json.dumps(tree, separators=(",", ":"))
    assert h.to_json_tree() == compact
    assert h.checksum() == hashlib.sha256(compact.encode("utf-8")).hexdigest()


def test_deep_chain_children_declared_first():
    depth = 3000
    names = [f"c{i}" for i in range(depth)]
    parent = {names[i]: names[i - 1] for i in range(depth - 1, 0, -1)}
    parent[names[0]] = None
    h = ClassHierarchy(parent)
    assert h.depth(names[-1]) == depth
    compact = (
        "".join('{"name":"%s","children":[' % n for n in names[:-1])
        + '{"name":"%s"}' % names[-1] + "]}" * (depth - 1)
    )
    assert h.checksum() == hashlib.sha256(compact.encode("utf-8")).hexdigest()


def chain_json_tree(depth):
    return (
        "".join('{"name": "c%d", "children": [' % i for i in range(depth - 1))
        + '{"name": "c%d"}' % (depth - 1) + "]}" * (depth - 1)
    )


def test_deep_json_tree_matches_owl_chain():
    depth = 300
    classes = "".join(
        f'<owl:Class rdf:about="#c{i}"><rdfs:subClassOf rdf:resource="#c{i - 1}"/></owl:Class>'
        for i in range(depth - 1, 0, -1)
    )
    h_owl = parse_owl_subset(
        '<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#" '
        'xmlns:rdfs="http://www.w3.org/2000/01/rdf-schema#" '
        f'xmlns:owl="http://www.w3.org/2002/07/owl#">{classes}</rdf:RDF>')
    h_json = parse_json_tree(chain_json_tree(depth))
    assert h_json.depth(f"c{depth - 1}") == depth
    assert h_json == h_owl
    assert h_json.checksum() == h_owl.checksum()


def test_json_tree_too_deep_to_decode_rejected():
    with pytest.raises(OntologyError, match="nested too deeply"):
        parse_json_tree(chain_json_tree(3000))


@given(parent_maps())
@settings(max_examples=60)
def test_relatives_never_contain_self(parent):
    h = ClassHierarchy(parent)
    for c in sorted(h.classes)[:10]:
        assert c not in h.relatives(c)


def test_sibling_beats_ancestors_above_parent():
    """A sibling is at least as similar as any ancestor strictly above the parent.

    The parent itself is the documented exception: wup(o, parent) =
    2(d-1)/(2d-1) always exceeds the sibling value 2(d-1)/(2d).
    """
    rng = make_rng(2024)
    for _ in range(100):
        h = ClassHierarchy(random_parent_map(rng, 50))
        for o in sorted(h.classes):
            sibs = h.siblings(o)
            if not sibs:
                continue
            anc = h.ancestors(o)
            parent = anc[0]
            for s in sorted(sibs):
                sib_sim = h.wup_similarity(o, s)
                assert h.wup_similarity(o, parent) > sib_sim
                for g in anc[1:]:
                    assert sib_sim >= h.wup_similarity(o, g)
