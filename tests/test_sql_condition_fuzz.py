"""Hypothesis fuzzing of condition parsing, rendering, and evaluation."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.schema.model import Attribute, AttributeType, Relation
from repro.sql.conditions import compile_condition
from repro.sql.parser import parse_condition
from repro.storage.table import Table

RELATION = Relation(
    "T",
    [
        Attribute("x", AttributeType.REAL),
        Attribute("y", AttributeType.REAL),
        Attribute("s", AttributeType.TEXT),
    ],
)

_NUMBER = st.integers(min_value=-99, max_value=99)
_COLUMN = st.sampled_from(["x", "y"])
_CMP = st.sampled_from(["<", "<=", "=", ">=", ">", "<>"])


@st.composite
def condition_texts(draw, depth: int = 0) -> str:
    if depth < 2 and draw(st.booleans()):
        connective = draw(st.sampled_from([" AND ", " OR "]))
        left = draw(condition_texts(depth=depth + 1))
        right = draw(condition_texts(depth=depth + 1))
        text = f"({left}{connective}{right})"
        if draw(st.booleans()):
            return f"NOT {text}"
        return text
    kind = draw(st.integers(min_value=0, max_value=4))
    column = draw(_COLUMN)
    if kind == 0:
        return f"{column} {draw(_CMP)} {draw(_NUMBER)}"
    if kind == 1:
        low = draw(_NUMBER)
        return f"{column} BETWEEN {low} AND {low + draw(st.integers(0, 20))}"
    if kind == 2:
        values = ", ".join(
            str(draw(_NUMBER)) for _ in range(draw(st.integers(1, 4)))
        )
        negated = "NOT " if draw(st.booleans()) else ""
        return f"{column} {negated}IN ({values})"
    if kind == 3:
        negated = "NOT " if draw(st.booleans()) else ""
        return f"{column} IS {negated}NULL"
    pattern = draw(st.sampled_from(["a%", "%b", "a_c", "%", "_"]))
    return f"s LIKE '{pattern}'"


class TestConditionFuzz:
    @settings(max_examples=200, deadline=None)
    @given(condition_texts())
    def test_parse_render_fixpoint(self, text):
        condition = parse_condition(text)
        rendered = condition.to_sql()
        assert parse_condition(rendered).to_sql() == rendered

    @settings(max_examples=100, deadline=None)
    @given(
        condition_texts(),
        st.lists(
            st.tuples(
                st.one_of(st.none(), st.integers(-99, 99).map(float)),
                st.integers(-99, 99).map(float),
                st.sampled_from(["abc", "axc", "b", ""]),
            ),
            max_size=8,
        ),
    )
    def test_evaluation_is_total_and_boolean(self, text, rows):
        condition = parse_condition(text)
        predicate = compile_condition(condition, RELATION)
        table = Table(RELATION, rows)
        for row in table.iter_rows():
            assert predicate(row) in (True, False)

    @settings(max_examples=100, deadline=None)
    @given(condition_texts(), st.integers(-99, 99).map(float))
    def test_negation_flips_or_unknowns(self, text, value):
        # For NULL-free rows, NOT must flip the outcome exactly.
        condition = parse_condition(text)
        negated = parse_condition(f"NOT ({text})")
        predicate = compile_condition(condition, RELATION)
        negated_predicate = compile_condition(negated, RELATION)
        row = Table(RELATION, [(value, value + 1, "abc")]).row(0)
        assert predicate(row) != negated_predicate(row)

    @settings(max_examples=60, deadline=None)
    @given(condition_texts())
    def test_columns_iteration_covers_references(self, text):
        condition = parse_condition(text)
        names = {ref.name for ref in condition.columns()}
        assert names <= {"x", "y", "s"}
        # Every free column name present in the text is reported.
        for name in ("x", "y"):
            if f"{name} " in text:
                assert name in names
