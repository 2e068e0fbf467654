"""Query reformulation under a schema mapping.

Queries are posed against the mediated (target) schema; to execute one, it
must be rewritten against the source schema under a candidate mapping — the
step the paper's Figure 1 performs once per mapping (turning Q1 into Q11 and
Q12, or Q2 into Q21 and Q22 in the running examples).

Rewriting renames every column reference that the mapping covers, switches
the FROM clause to the source relation, and preserves aliases.  References
to target attributes the mapping does *not* cover are controlled by the
``unmapped`` mode:

* ``"error"`` (default) — raise :class:`~repro.exceptions.ReformulationError`;
* ``"null"`` — replace the reference with a NULL literal.  This matches the
  possible-worlds semantics (an unmapped attribute has no source values, so
  every tuple carries NULL there) and is what the query engine uses, so
  p-mappings produced by the schema matcher — whose lower-ranked candidates
  may leave attributes unmatched — remain queryable;
* ``"keep"`` — leave the reference unchanged (diagnostic use).

The aggregate argument and the GROUP BY attribute must be covered by the
mapping in every mode; aggregating a nonexistent column has no useful
reading in the algorithms downstream.  A flat query level that names an
attribute the target relation lacks raises
:class:`~repro.exceptions.SchemaError` in every mode.
"""

from __future__ import annotations

from repro.exceptions import ReformulationError, SchemaError
from repro.schema.mapping import PMapping, RelationMapping
from repro.sql.ast import (
    AggregateQuery,
    ColumnRef,
    Condition,
    Literal,
    SubquerySource,
    TableSource,
)

_UNMAPPED_MODES = ("error", "null", "keep")


def _check_mode(unmapped: str) -> None:
    if unmapped not in _UNMAPPED_MODES:
        raise ReformulationError(
            f"unknown unmapped mode {unmapped!r}; "
            f"expected one of {_UNMAPPED_MODES}"
        )


def _rename_mapped(mapping: RelationMapping, ref: ColumnRef) -> ColumnRef:
    new_name = mapping.source_for(ref.name)
    qualifier = ref.qualifier
    if qualifier == mapping.target.name:
        # Qualified by the target relation's own name: requalify with the
        # source relation.  Aliases pass through unchanged.
        qualifier = mapping.source.name
    return ColumnRef(new_name, qualifier)


def _column_renamer(
    mapping: RelationMapping, unmapped: str, *, strict: bool = True
):
    """Build the column rewriting function for condition references.

    ``strict`` rejects a name the target relation lacks, which would
    otherwise resolve against the source and bypass the mapping; only a
    nested query's outer level, which names subquery outputs, is lenient.
    """
    target_relation = mapping.target

    def rename(ref: ColumnRef):
        if mapping.maps_target(ref.name):
            return _rename_mapped(mapping, ref)
        if ref.name in target_relation:
            if unmapped == "null":
                return Literal(None)
            if unmapped == "error":
                raise ReformulationError(
                    f"mapping {mapping.describe()} has no correspondence for "
                    f"attribute {ref.name!r} referenced by the query"
                )
        elif strict:
            raise SchemaError(
                f"relation {target_relation.name!r} has no attribute "
                f"{ref.name!r}"
            )
        return ref

    return rename


def _strict_rename(
    mapping: RelationMapping, ref: ColumnRef, role: str
) -> ColumnRef:
    if mapping.maps_target(ref.name):
        return _rename_mapped(mapping, ref)
    if ref.name in mapping.target:
        raise ReformulationError(
            f"mapping {mapping.describe()} has no correspondence for the "
            f"{role} attribute {ref.name!r}"
        )
    return ref


def reformulate_condition(
    condition: Condition,
    mapping: RelationMapping,
    *,
    unmapped: str = "error",
) -> Condition:
    """Rewrite a WHERE condition from target attributes to source attributes.

    Used directly by the by-tuple algorithms, which compile one predicate
    per candidate mapping and evaluate every source tuple under each.
    """
    _check_mode(unmapped)
    return condition.map_columns(_column_renamer(mapping, unmapped))


def reformulate_query(
    query: AggregateQuery,
    mapping: RelationMapping,
    *,
    unmapped: str = "error",
) -> AggregateQuery:
    """Rewrite an aggregate query posed on the target schema onto the source.

    Handles one level of FROM-clause nesting (the paper's Q2 shape): the
    inner query's FROM must name the mapping's target relation, and column
    references at *both* levels are renamed (Q2's outer ``AVG(R1.price)``
    becomes ``AVG(R1.currentPrice)`` in the paper's Q21).

    Raises
    ------
    ReformulationError
        When the query's FROM clause does not name the mapping's target
        relation; when the aggregate argument or GROUP BY attribute has no
        correspondence; or (in ``unmapped="error"`` mode) when any
        referenced target attribute has none.
    """
    _check_mode(unmapped)
    source = query.source
    if isinstance(source, SubquerySource):
        inner = reformulate_query(source.query, mapping, unmapped=unmapped)
        new_source: TableSource | SubquerySource = SubquerySource(
            inner, source.alias
        )
        # The outer level's references name the subquery's output, resolved
        # positionally; rename them when they happen to use the target
        # attribute's name (the paper's loose convention), leniently.
        rename = _column_renamer(mapping, "keep", strict=False)
        return query.map_columns(rename).with_source(new_source)
    if source.name != mapping.target.name:
        raise ReformulationError(
            f"query reads from {source.name!r} but mapping "
            f"{mapping.describe()} targets {mapping.target.name!r}"
        )
    new_source = TableSource(mapping.source.name, source.alias)
    rename = _column_renamer(mapping, unmapped)
    rewritten = query.map_columns(rename).with_source(new_source)
    # map_columns ran the lenient renamer over the aggregate argument and
    # GROUP BY as well; re-derive them strictly so an unmapped argument is
    # an error in every mode.
    if query.aggregate.argument is not None:
        strict_argument = _strict_rename(
            mapping, query.aggregate.argument, "aggregate"
        )
        if rewritten.aggregate.argument != strict_argument:
            raise ReformulationError(
                f"mapping {mapping.describe()} has no correspondence for the "
                f"aggregate attribute {query.aggregate.argument.name!r}"
            )
    if query.group_by is not None:
        strict_group = _strict_rename(mapping, query.group_by, "GROUP BY")
        if rewritten.group_by != strict_group:
            raise ReformulationError(
                f"mapping {mapping.describe()} has no correspondence for the "
                f"GROUP BY attribute {query.group_by.name!r}"
            )
    return rewritten


def reformulations(
    query: AggregateQuery,
    pmapping: PMapping,
    *,
    unmapped: str = "error",
) -> list[tuple[AggregateQuery, float]]:
    """All per-mapping rewritings of ``query`` with their probabilities.

    This is the fan-out step shared by every algorithm: one reformulated
    query per candidate mapping in the p-mapping.
    """
    return [
        (reformulate_query(query, mapping, unmapped=unmapped), probability)
        for mapping, probability in pmapping
    ]
