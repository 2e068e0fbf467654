"""Schema mappings and probabilistic mappings (paper Definitions 1 and 2).

* :class:`RelationMapping` — a one-to-one relation mapping ``(S, T, m)``:
  a set of attribute correspondences where each source and each target
  attribute occurs at most once (Definition 1).

* :class:`PMapping` — a probabilistic mapping: a set of *distinct*
  one-to-one relation mappings between the same relation pair, each with a
  probability, probabilities summing to 1 (Definition 2).

* :class:`SchemaPMapping` — a set of p-mappings where every relation appears
  in at most one p-mapping (Definition 2, second part).

All three validate their invariants at construction time, so any instance
held by the query engine is known to be well-formed.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Sequence

from repro.exceptions import MappingError
from repro.schema.correspondence import AttributeCorrespondence
from repro.schema.model import Relation

#: Tolerance for the "probabilities sum to 1" check of Definition 2.
_PROBABILITY_TOLERANCE = 1e-9


class RelationMapping:
    """A one-to-one relation mapping between a source and a target relation.

    Parameters
    ----------
    source:
        The source :class:`Relation` (the data actually lives here).
    target:
        The target (mediated) :class:`Relation` (queries are posed here).
    correspondences:
        Attribute correspondences.  Each must reference existing attributes,
        and no source or target attribute may appear twice (one-to-one,
        Definition 1).
    name:
        Optional label (the paper writes m11, m12, ...).

    Examples
    --------
    >>> from repro.schema.model import Attribute, AttributeType, Relation
    >>> s = Relation("S1", [Attribute("postedDate", AttributeType.DATE),
    ...                     Attribute("reducedDate", AttributeType.DATE)])
    >>> t = Relation("T1", [Attribute("date", AttributeType.DATE)])
    >>> m11 = RelationMapping(s, t,
    ...     [AttributeCorrespondence("postedDate", "date")], name="m11")
    >>> m11.source_for("date")
    'postedDate'
    """

    __slots__ = ("source", "target", "correspondences", "name",
                 "_target_to_source", "_source_to_target")

    def __init__(
        self,
        source: Relation,
        target: Relation,
        correspondences: Iterable[AttributeCorrespondence],
        name: str | None = None,
    ) -> None:
        corrs = tuple(sorted(correspondences))
        target_to_source: dict[str, str] = {}
        source_to_target: dict[str, str] = {}
        for corr in corrs:
            if not isinstance(corr, AttributeCorrespondence):
                raise MappingError(
                    f"expected AttributeCorrespondence, got {corr!r}"
                )
            if corr.source not in source:
                raise MappingError(
                    f"correspondence source {corr.source!r} is not an attribute "
                    f"of relation {source.name!r}"
                )
            if corr.target not in target:
                raise MappingError(
                    f"correspondence target {corr.target!r} is not an attribute "
                    f"of relation {target.name!r}"
                )
            if corr.source in source_to_target:
                raise MappingError(
                    f"source attribute {corr.source!r} appears in more than one "
                    "correspondence; relation mappings must be one-to-one"
                )
            if corr.target in target_to_source:
                raise MappingError(
                    f"target attribute {corr.target!r} appears in more than one "
                    "correspondence; relation mappings must be one-to-one"
                )
            source_to_target[corr.source] = corr.target
            target_to_source[corr.target] = corr.source
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "correspondences", corrs)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "_target_to_source", target_to_source)
        object.__setattr__(self, "_source_to_target", source_to_target)

    def __setattr__(self, key: str, value: object) -> None:
        raise AttributeError("RelationMapping instances are immutable")

    def __reduce__(self):
        # Immutable __slots__ classes need explicit pickle support.
        return (
            RelationMapping,
            (self.source, self.target, self.correspondences, self.name),
        )

    def source_for(self, target_attribute: str) -> str:
        """The source attribute mapped to ``target_attribute``.

        Raises :class:`MappingError` when the mapping has no correspondence
        for it — the situation :mod:`repro.sql.reformulate` turns into a
        :class:`~repro.exceptions.ReformulationError`.
        """
        try:
            return self._target_to_source[target_attribute]
        except KeyError:
            raise MappingError(
                f"mapping {self.describe()} has no correspondence for target "
                f"attribute {target_attribute!r}"
            ) from None

    def maps_target(self, target_attribute: str) -> bool:
        """True when some correspondence covers ``target_attribute``."""
        return target_attribute in self._target_to_source

    def target_for(self, source_attribute: str) -> str:
        """The target attribute that ``source_attribute`` maps to."""
        try:
            return self._source_to_target[source_attribute]
        except KeyError:
            raise MappingError(
                f"mapping {self.describe()} has no correspondence for source "
                f"attribute {source_attribute!r}"
            ) from None

    def describe(self) -> str:
        """A short human-readable label for error messages."""
        if self.name:
            return self.name
        pairs = ", ".join(f"{c.source}->{c.target}" for c in self.correspondences)
        return f"({self.source.name} => {self.target.name}: {pairs})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RelationMapping):
            return NotImplemented
        # Identity of a mapping is its correspondence set over a relation
        # pair; the display name does not participate (Definition 2 requires
        # the *mappings* in a p-mapping to be distinct, not their labels).
        return (
            self.source == other.source
            and self.target == other.target
            and self.correspondences == other.correspondences
        )

    def __hash__(self) -> int:
        return hash((self.source, self.target, self.correspondences))

    def __repr__(self) -> str:
        return f"RelationMapping({self.describe()})"


class PMapping:
    """A probabilistic mapping ``pM = (S, T, m)`` (paper Definition 2).

    ``m`` is a sequence of ``(RelationMapping, probability)`` pairs where the
    mappings are pairwise distinct, each probability lies in [0, 1], and the
    probabilities sum to 1.

    Iteration yields ``(mapping, probability)`` pairs in the order given.

    Examples
    --------
    >>> pm = PMapping(s1_relation, t1_relation,
    ...               [(m11, 0.6), (m12, 0.4)])      # doctest: +SKIP
    """

    __slots__ = ("source", "target", "alternatives")

    def __init__(
        self,
        source: Relation,
        target: Relation,
        alternatives: Iterable[tuple[RelationMapping, float]],
    ) -> None:
        alts = tuple(alternatives)
        if not alts:
            raise MappingError("a p-mapping needs at least one mapping")
        seen: set[RelationMapping] = set()
        total = 0.0
        for mapping, probability in alts:
            if not isinstance(mapping, RelationMapping):
                raise MappingError(f"expected RelationMapping, got {mapping!r}")
            if mapping.source != source or mapping.target != target:
                raise MappingError(
                    f"mapping {mapping.describe()} is not between "
                    f"{source.name!r} and {target.name!r}"
                )
            if mapping in seen:
                raise MappingError(
                    f"duplicate mapping {mapping.describe()} in p-mapping; "
                    "Definition 2 requires distinct mappings"
                )
            seen.add(mapping)
            if not isinstance(probability, (int, float)) or isinstance(probability, bool):
                raise MappingError(f"probability must be a number, got {probability!r}")
            if not 0.0 <= probability <= 1.0:
                raise MappingError(
                    f"probability of {mapping.describe()} is {probability}, "
                    "outside [0, 1]"
                )
            total += probability
        if not math.isclose(total, 1.0, abs_tol=_PROBABILITY_TOLERANCE):
            raise MappingError(
                f"p-mapping probabilities sum to {total}, expected 1"
            )
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "alternatives", alts)

    def __setattr__(self, key: str, value: object) -> None:
        raise AttributeError("PMapping instances are immutable")

    def __reduce__(self):
        return (PMapping, (self.source, self.target, self.alternatives))

    @property
    def mappings(self) -> tuple[RelationMapping, ...]:
        """The mappings, without their probabilities."""
        return tuple(m for m, _ in self.alternatives)

    @property
    def probabilities(self) -> tuple[float, ...]:
        """The probabilities, aligned with :attr:`mappings`."""
        return tuple(p for _, p in self.alternatives)

    def probability_of(self, mapping: RelationMapping) -> float:
        """The probability assigned to ``mapping`` (0 when absent)."""
        for candidate, probability in self.alternatives:
            if candidate == mapping:
                return probability
        return 0.0

    def most_probable(self) -> RelationMapping:
        """The mapping with the highest probability (ties: first listed)."""
        return max(self.alternatives, key=lambda mp: mp[1])[0]

    def __iter__(self) -> Iterator[tuple[RelationMapping, float]]:
        return iter(self.alternatives)

    def __len__(self) -> int:
        return len(self.alternatives)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PMapping):
            return NotImplemented
        return (
            self.source == other.source
            and self.target == other.target
            and self.alternatives == other.alternatives
        )

    def __hash__(self) -> int:
        return hash((self.source, self.target, self.alternatives))

    def __repr__(self) -> str:
        alts = ", ".join(
            f"{m.describe()}: {p:.4g}" for m, p in self.alternatives
        )
        return f"PMapping({self.source.name} => {self.target.name}; {alts})"


class SchemaPMapping:
    """A schema p-mapping: at most one p-mapping per relation (Definition 2).

    Provides lookup of the p-mapping responsible for a given *target*
    relation, which is what the query engine needs when reformulating a
    query posed on the mediated schema.
    """

    __slots__ = ("pmappings", "_by_target", "_by_source")

    def __init__(self, pmappings: Sequence[PMapping]) -> None:
        pms = tuple(pmappings)
        if not pms:
            raise MappingError("a schema p-mapping needs at least one p-mapping")
        by_target: dict[str, PMapping] = {}
        by_source: dict[str, PMapping] = {}
        for pm in pms:
            if not isinstance(pm, PMapping):
                raise MappingError(f"expected PMapping, got {pm!r}")
            if pm.target.name in by_target:
                raise MappingError(
                    f"relation {pm.target.name!r} appears in more than one "
                    "p-mapping"
                )
            if pm.source.name in by_source:
                raise MappingError(
                    f"relation {pm.source.name!r} appears in more than one "
                    "p-mapping"
                )
            by_target[pm.target.name] = pm
            by_source[pm.source.name] = pm
        object.__setattr__(self, "pmappings", pms)
        object.__setattr__(self, "_by_target", by_target)
        object.__setattr__(self, "_by_source", by_source)

    def __setattr__(self, key: str, value: object) -> None:
        raise AttributeError("SchemaPMapping instances are immutable")

    def __reduce__(self):
        return (SchemaPMapping, (self.pmappings,))

    def for_target(self, relation_name: str) -> PMapping:
        """The p-mapping whose target relation is ``relation_name``."""
        try:
            return self._by_target[relation_name]
        except KeyError:
            raise MappingError(
                f"no p-mapping targets relation {relation_name!r}"
            ) from None

    def for_source(self, relation_name: str) -> PMapping:
        """The p-mapping whose source relation is ``relation_name``."""
        try:
            return self._by_source[relation_name]
        except KeyError:
            raise MappingError(
                f"no p-mapping has source relation {relation_name!r}"
            ) from None

    def __iter__(self) -> Iterator[PMapping]:
        return iter(self.pmappings)

    def __len__(self) -> int:
        return len(self.pmappings)

    def __repr__(self) -> str:
        return f"SchemaPMapping({len(self.pmappings)} p-mappings)"
