"""Query descriptions and the Wisconsin join workload.

"Each client ran the same workload, a set of similar, but randomly
perturbed join queries over two instances of the Wisconsin benchmark
relations ...  In each query, tuples from both relations are selected on an
indexed attribute (10% selectivity) and then joined on a unique attribute."

:class:`JoinQuery` captures one such query; :class:`WisconsinWorkload`
generates the randomly perturbed stream.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.errors import DatabaseError

__all__ = ["JoinQuery", "WisconsinWorkload"]


@dataclass(frozen=True)
class JoinQuery:
    """Select 10% of each relation on an indexed attribute, join on a key.

    ``select_field`` must be indexed in both relations; ``select_value_a``
    and ``select_value_b`` pick which 10% slice of each relation
    participates; ``join_field`` must be a unique attribute.
    """

    select_field: str = "tenPercent"
    select_value_a: int = 0
    select_value_b: int = 0
    join_field: str = "unique1"

    def __post_init__(self) -> None:
        if self.select_field == self.join_field:
            raise DatabaseError(
                "selection and join attributes must differ")

    def describe(self) -> str:
        return (f"SELECT * FROM A, B WHERE "
                f"A.{self.select_field}={self.select_value_a} AND "
                f"B.{self.select_field}={self.select_value_b} AND "
                f"A.{self.join_field}=B.{self.join_field}")


class WisconsinWorkload:
    """A deterministic stream of randomly perturbed join queries.

    Perturbation: each query picks fresh selection values for both
    relations from the ten 10%-slices of ``tenPercent`` — "similar, but
    randomly perturbed".  Each client seeds its own stream so clients are
    decorrelated yet reproducible.
    """

    def __init__(self, seed: int = 0, select_field: str = "tenPercent",
                 join_field: str = "unique1", distinct_values: int = 10):
        if distinct_values <= 0:
            raise DatabaseError("distinct_values must be positive")
        self.select_field = select_field
        self.join_field = join_field
        self.distinct_values = distinct_values
        self._rng = random.Random(seed)
        self.queries_generated = 0

    def next_query(self) -> JoinQuery:
        self.queries_generated += 1
        return JoinQuery(
            select_field=self.select_field,
            select_value_a=self._rng.randrange(self.distinct_values),
            select_value_b=self._rng.randrange(self.distinct_values),
            join_field=self.join_field)
