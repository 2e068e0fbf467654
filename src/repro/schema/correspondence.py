"""Attribute correspondences: the atoms of a schema mapping.

A correspondence ``c = (s_i, t_j)`` states that source attribute ``s_i``
supplies the values of target attribute ``t_j`` (paper Section II).  The
direction matters: queries are written against the target (mediated) schema
and reformulated onto the source, so lookup by *target* attribute is the hot
path.
"""

from __future__ import annotations

from repro.exceptions import MappingError


class AttributeCorrespondence:
    """A one-to-one pairing of a source attribute name with a target one.

    Examples
    --------
    >>> c = AttributeCorrespondence("postedDate", "date")
    >>> c.source, c.target
    ('postedDate', 'date')
    """

    __slots__ = ("source", "target")

    def __init__(self, source: str, target: str) -> None:
        if not source or not isinstance(source, str):
            raise MappingError(
                f"correspondence source must be a non-empty string, got {source!r}"
            )
        if not target or not isinstance(target, str):
            raise MappingError(
                f"correspondence target must be a non-empty string, got {target!r}"
            )
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)

    def __setattr__(self, key: str, value: object) -> None:
        raise AttributeError("AttributeCorrespondence instances are immutable")

    def __reduce__(self):
        # Immutable __slots__ classes need explicit pickle support.
        return (AttributeCorrespondence, (self.source, self.target))

    def reversed(self) -> "AttributeCorrespondence":
        """The correspondence with source and target swapped."""
        return AttributeCorrespondence(self.target, self.source)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AttributeCorrespondence):
            return NotImplemented
        return self.source == other.source and self.target == other.target

    def __lt__(self, other: "AttributeCorrespondence") -> bool:
        return (self.source, self.target) < (other.source, other.target)

    def __hash__(self) -> int:
        return hash((self.source, self.target))

    def __repr__(self) -> str:
        return f"AttributeCorrespondence({self.source!r} -> {self.target!r})"
