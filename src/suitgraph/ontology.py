"""Object-class taxonomy: parsing, structural queries, Wu-Palmer similarity.

The hierarchy is a single rooted tree of named classes. Two source formats
are supported:

* ``json-tree``: nested objects ``{"name": str, "children": [node, ...]}``;
  the top-level node is the root, ``children`` is optional.
* ``owl-subset``: RDF/XML restricted to named ``owl:Class`` elements and
  ``rdfs:subClassOf`` references to named classes. Anonymous superclasses
  (restrictions, intersections) and any other OWL construct are skipped with
  a warning; they never fail the parse. Multiple named superclasses for one
  class violate the tree shape and are an error.

Depth is counted from 1 at the root so similarity denominators are positive.
"""

from __future__ import annotations

import hashlib
import json
import logging
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import Callable, Iterable, Mapping

logger = logging.getLogger(__name__)

_RDF = "{http://www.w3.org/1999/02/22-rdf-syntax-ns#}"
_RDFS = "{http://www.w3.org/2000/01/rdf-schema#}"
_OWL = "{http://www.w3.org/2002/07/owl#}"


class OntologyError(ValueError):
    """Structural or syntactic problem in an ontology source or query.

    ``class_id`` names the offending class when one is known.
    """

    def __init__(self, message: str, class_id: str | None = None):
        super().__init__(message)
        self.class_id = class_id


class UnknownClassError(OntologyError):
    """A query named a class that is not in the hierarchy."""

    def __init__(self, class_id: str):
        super().__init__(f"unknown class {class_id!r}", class_id=class_id)


@dataclass(frozen=True)
class ObjectCluster:
    """Candidate set for model transfer onto ``target``.

    Members are the target's strict ancestors, siblings, and direct children
    that carry an execution model. The target itself is never a member.
    """

    target: str
    members: frozenset[str]

    def __post_init__(self):
        if self.target in self.members:
            raise ValueError(f"cluster for {self.target!r} must not contain the target itself")

    def __len__(self) -> int:
        return len(self.members)


class ClassHierarchy:
    """Immutable rooted tree of object classes.

    Construct from a full parent mapping (every class present as a key, the
    root mapped to ``None``). Validation rejects duplicate/empty identifiers,
    missing or multiple roots, undeclared parents, and cycles; each error
    names an offending class.
    """

    def __init__(self, parent: Mapping[str, str | None]):
        if not parent:
            raise OntologyError("empty hierarchy: no classes declared")
        self._parent: dict[str, str | None] = {}
        for name, par in parent.items():
            if not isinstance(name, str) or not name:
                raise OntologyError(f"invalid class identifier {name!r}")
            if par is not None and (not isinstance(par, str) or not par):
                raise OntologyError(f"invalid parent identifier {par!r} for class {name!r}", class_id=name)
            self._parent[name] = par

        roots = [c for c, p in self._parent.items() if p is None]
        if not roots:
            raise OntologyError("no root class (every class has a parent; the structure is cyclic)")
        if len(roots) > 1:
            extra = sorted(roots)[1]
            raise OntologyError(f"multiple roots: {sorted(roots)!r}", class_id=extra)
        self._root = roots[0]

        for name, par in self._parent.items():
            if par is not None and par not in self._parent:
                raise OntologyError(f"parent {par!r} of class {name!r} is not declared", class_id=name)

        self._children: dict[str, tuple[str, ...]] = {c: () for c in self._parent}
        kids: dict[str, list[str]] = {c: [] for c in self._parent}
        for name, par in self._parent.items():
            if par is not None:
                kids[par].append(name)
        for name, lst in kids.items():
            self._children[name] = tuple(sorted(lst))

        # depth assignment doubles as cycle detection: a class on a cycle
        # never reaches the root. Iterative, so deep chains need no recursion.
        self._depth: dict[str, int] = {self._root: 1}
        for name in self._parent:
            trail: dict[str, None] = {}
            cur = name
            while cur not in self._depth:
                if cur in trail:
                    raise OntologyError(f"cycle through class {cur!r}", class_id=cur)
                trail[cur] = None
                cur = self._parent[cur]
            d = self._depth[cur]
            for below in reversed(trail):
                d += 1
                self._depth[below] = d

    # -- structural queries -------------------------------------------------

    @property
    def root(self) -> str:
        return self._root

    @property
    def classes(self) -> frozenset[str]:
        return frozenset(self._parent)

    def __contains__(self, class_id: str) -> bool:
        return class_id in self._parent

    def __len__(self) -> int:
        return len(self._parent)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ClassHierarchy):
            return NotImplemented
        return self._parent == other._parent

    def _require(self, class_id: str) -> None:
        if class_id not in self._parent:
            raise UnknownClassError(class_id)

    def parent(self, class_id: str) -> str | None:
        """Parent class, or None for the root."""
        self._require(class_id)
        return self._parent[class_id]

    def children(self, class_id: str) -> tuple[str, ...]:
        """Direct subclasses, sorted."""
        self._require(class_id)
        return self._children[class_id]

    def depth(self, class_id: str) -> int:
        """Node depth with depth(root) == 1."""
        self._require(class_id)
        return self._depth[class_id]

    def ancestors(self, class_id: str) -> tuple[str, ...]:
        """Strict ancestors, nearest first, ending at the root."""
        self._require(class_id)
        out = []
        cur = self._parent[class_id]
        while cur is not None:
            out.append(cur)
            cur = self._parent[cur]
        return tuple(out)

    def siblings(self, class_id: str) -> frozenset[str]:
        """Classes sharing the parent, excluding the class itself (root: empty)."""
        self._require(class_id)
        par = self._parent[class_id]
        if par is None:
            return frozenset()
        return frozenset(c for c in self._children[par] if c != class_id)

    def lcs(self, a: str, b: str) -> str:
        """Least common subsumer: the deepest class subsuming both a and b.

        A class subsumes itself, so lcs(x, x) == x and lcs(x, ancestor) is
        the ancestor.
        """
        self._require(a)
        self._require(b)
        line: set[str] = set()
        cur: str | None = a
        while cur is not None:
            line.add(cur)
            cur = self._parent[cur]
        cur = b
        while cur is not None:
            if cur in line:
                return cur
            cur = self._parent[cur]
        raise OntologyError(f"no common subsumer for {a!r} and {b!r}")  # unreachable in a tree

    def wup_similarity(self, a: str, b: str) -> float:
        """Wu-Palmer similarity: 2*depth(lcs) / (depth(a) + depth(b)).

        Symmetric, in (0, 1], and exactly 1 iff a == b (in a tree two
        distinct classes cannot both equal their common subsumer).
        """
        return self.wup_similarities(a, (b,))[b]

    def wup_similarities(self, target: str, others: Iterable[str]) -> dict[str, float]:
        """Wu-Palmer similarity of ``target`` to each class of ``others``.

        The target's ancestor line is walked once; each other class then
        walks up until it meets that line, at its least common subsumer
        with the target (a sibling after one step). Unknown classes raise
        UnknownClassError, the target first, then ``others`` in order.
        """
        self._require(target)
        parent, depth = self._parent, self._depth
        line: dict[str, int] = {}
        cur: str | None = target
        while cur is not None:
            line[cur] = depth[cur]
            cur = parent[cur]
        target_depth = depth[target]
        out: dict[str, float] = {}
        for other in others:
            if other not in parent:
                raise UnknownClassError(other)
            # the root is on the line, so every walk ends
            cur = other
            while (shared := line.get(cur)) is None:
                cur = parent[cur]
            out[other] = 2.0 * shared / (target_depth + depth[other])
        return out

    def relatives(self, class_id: str, *, max_ancestor_hops: int | None = None) -> frozenset[str]:
        """Strict ancestors, siblings, and direct children of a class.

        ``max_ancestor_hops`` caps how many parent steps contribute ancestors
        (None = all the way to the root); siblings and children are always
        included. A negative cap is a ValueError.
        """
        self._require(class_id)
        if max_ancestor_hops is not None and max_ancestor_hops < 0:
            raise ValueError(f"max_ancestor_hops must be None or >= 0, got {max_ancestor_hops!r}")
        out = set(self._children[class_id]) | self.siblings(class_id)
        hops = 0
        cur = self._parent[class_id]
        while cur is not None and (max_ancestor_hops is None or hops < max_ancestor_hops):
            out.add(cur)
            hops += 1
            cur = self._parent[cur]
        return frozenset(out)

    def object_cluster(
        self,
        target: str,
        has_model: Callable[[str], bool],
        *,
        max_ancestor_hops: int | None = None,
    ) -> ObjectCluster:
        """Relatives of ``target`` that carry an execution model.

        May be empty; the caller decides whether that means a new model must
        be learned from scratch.
        """
        rel = self.relatives(target, max_ancestor_hops=max_ancestor_hops)
        return ObjectCluster(target, frozenset(c for c in rel if has_model(c)))

    # -- serialization ------------------------------------------------------

    def to_json_tree(self) -> str:
        """Serialize as compact json-tree with children sorted by name: the
        bytes of ``json.dumps(tree, separators=(",", ":"))``.

        parse_json_tree(h.to_json_tree()) == h for every hierarchy, and the
        output is canonical: equal hierarchies serialize to equal bytes.
        Built with an explicit stack: json.dumps itself recurses and fails on
        a taxonomy a few hundred levels deep.
        """
        parts: list[str] = []
        # closing text, or (text before the node, node name)
        stack: list = [("", self._root)]
        while stack:
            item = stack.pop()
            if isinstance(item, str):
                parts.append(item)
                continue
            lead, name = item
            kids = self._children[name]
            parts.append(lead + '{"name":' + encode_basestring_ascii(name) + (',"children":[' if kids else "}"))
            if kids:
                stack.append("]}")
                stack.extend((",", kid) for kid in reversed(kids[1:]))
                stack.append(("", kids[0]))
        return "".join(parts)

    def checksum(self) -> str:
        """SHA-256 of ``to_json_tree()``.

        Format-independent: a hierarchy parsed from OWL and its json-tree
        round-trip produce the same digest.
        """
        return hashlib.sha256(self.to_json_tree().encode("utf-8")).hexdigest()


# -- parsing ---------------------------------------------------------------


def parse_json_tree(text: str) -> ClassHierarchy:
    """Parse the nested json-tree format.

    ``json.loads`` recurses once per nesting level, and every taxonomy level
    nests an object and an array, so a tree a few hundred levels deep
    exceeds the interpreter's recursion limit; that is reported as an
    OntologyError (the OWL form has no nesting). The walk over the decoded
    tree is iterative.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise OntologyError(f"malformed json-tree: {exc}") from exc
    except RecursionError:
        raise OntologyError(
            "json-tree nested too deeply to decode; write deep taxonomies in the OWL subset") from None

    parent: dict[str, str | None] = {}
    # preorder with an explicit stack: the same visiting order, and so the
    # same first error, as a recursive walk
    stack: list = [(doc, None)]
    while stack:
        node, par = stack.pop()
        if not isinstance(node, dict):
            raise OntologyError(f"malformed json-tree: expected an object, got {type(node).__name__}")
        name = node.get("name")
        if not isinstance(name, str) or not name:
            raise OntologyError("malformed json-tree: node with missing or empty 'name'")
        if name in parent:
            raise OntologyError(f"duplicate class {name!r}", class_id=name)
        parent[name] = par
        children = node.get("children", [])
        if not isinstance(children, list):
            raise OntologyError(f"malformed json-tree: 'children' of {name!r} must be an array", class_id=name)
        for child in reversed(children):
            stack.append((child, name))
    return ClassHierarchy(parent)


def _local_name(uri: str) -> str:
    if "#" in uri:
        frag = uri.rsplit("#", 1)[1]
    else:
        frag = uri.rstrip("/").rsplit("/", 1)[-1]
    return frag


def parse_owl_subset(text: str) -> ClassHierarchy:
    """Parse the named-class RDF/XML subset.

    Recognized: top-level ``owl:Class`` elements identified by ``rdf:about``
    or ``rdf:ID``, and their ``rdfs:subClassOf`` children carrying an
    ``rdf:resource`` reference. Class identifiers are the URI fragments.
    Everything else is skipped with a warning. Parents referenced but never
    declared (e.g. ``owl:Thing``) become classes implicitly.
    """
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise OntologyError(f"malformed owl: {exc}") from exc

    declared: set[str] = set()
    edges: dict[str, str] = {}
    referenced: list[str] = []

    for elem in root:
        if elem.tag != _OWL + "Class":
            logger.warning("ignoring OWL construct %s", elem.tag)
            continue
        about = elem.get(_RDF + "about")
        ident = elem.get(_RDF + "ID")
        if about is not None:
            name = _local_name(about)
        elif ident is not None:
            name = ident
        else:
            raise OntologyError("owl class without rdf:about or rdf:ID")
        if not name:
            raise OntologyError(f"owl class with empty identifier in {about!r}")
        if name in declared:
            raise OntologyError(f"duplicate class {name!r}", class_id=name)
        declared.add(name)
        for sub in elem:
            if sub.tag == _RDFS + "subClassOf":
                resource = sub.get(_RDF + "resource")
                if resource is None:
                    # anonymous superclass (restriction, intersection, ...)
                    logger.warning("ignoring anonymous superclass of %r", name)
                    continue
                parent_name = _local_name(resource)
                if not parent_name:
                    raise OntologyError(f"empty superclass reference on {name!r}", class_id=name)
                if name in edges and edges[name] != parent_name:
                    raise OntologyError(
                        f"multiple parents for class {name!r}: {edges[name]!r} and {parent_name!r}",
                        class_id=name,
                    )
                edges[name] = parent_name
                referenced.append(parent_name)
            else:
                logger.warning("ignoring OWL construct %s on class %r", sub.tag, name)

    all_classes = declared.union(referenced)
    if not all_classes:
        raise OntologyError("malformed owl: no owl:Class declarations found")
    return ClassHierarchy({c: edges.get(c) for c in sorted(all_classes)})


def load_hierarchy(path) -> ClassHierarchy:
    """Read a hierarchy file; the extension picks the parser.

    ``.json`` -> json-tree; ``.owl``/``.rdf``/``.xml`` -> owl-subset.
    """
    from pathlib import Path

    p = Path(path)
    suffix = p.suffix.lower()
    if suffix == ".json":
        parse = parse_json_tree
    elif suffix in (".owl", ".rdf", ".xml"):
        parse = parse_owl_subset
    else:
        raise ValueError(f"cannot infer ontology format from {p.name!r}; "
                         "use a .json, .owl, .rdf or .xml file")
    return parse(p.read_text(encoding="utf-8"))


def household_taxonomy_path():
    """Path of the taxonomy fixture shipped with the package."""
    from pathlib import Path

    return Path(__file__).parent / "data" / "household_taxonomy.json"
