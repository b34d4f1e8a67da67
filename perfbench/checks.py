"""Output checks made apart from the program's query path.

:func:`holds` decides whether a Project-Join query yields a row accepted by
every cell predicate, with a semijoin reduction over plain Python sets of
column values.  It uses neither the program's executor, planner, kernels
nor caches: only the table's public ``column_values`` and the constraint's
own ``matches``.  Every returned query of a checked round goes through it.
On Mondial-sized data, ``repro.query.reference.exists_reference`` (nested
loops over whole rows) confirms the first query of each round too: the
oracle the program's own differential suites trust.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping

from repro import ColumnRef, ForeignKey, MappingSpec, ProjectJoinQuery
from repro.query.reference import exists_reference

CellPredicate = Callable[[Any], bool]


class ColumnCache:
    """Column value lists of one database state, read once per check."""

    def __init__(self, database):
        self.database = database
        self._columns: dict[tuple[str, str], list] = {}

    def values(self, table: str, column: str) -> list:
        key = (table, column)
        if key not in self._columns:
            self._columns[key] = self.database.table(table).column_values(column)
        return self._columns[key]

    def num_rows(self, table: str) -> int:
        return self.database.table(table).num_rows


def sample_predicates(spec: MappingSpec) -> list[dict[int, CellPredicate]]:
    """One ``{position: predicate}`` map per sample row of ``spec``."""
    return [
        {
            position: cell.matches
            for position, cell in enumerate(sample.cells)
            if cell is not None
        }
        for sample in spec.samples
    ]


def holds(
    columns: ColumnCache,
    query: ProjectJoinQuery,
    predicates: Mapping[int, CellPredicate],
) -> bool:
    """Whether ``query`` has a result row that every predicate accepts.

    The rows of each table are first cut to those whose projected cells
    pass; each join edge then keeps only rows whose key (never NULL) meets
    a key on the other side, until nothing changes.  For the tree-shaped
    joins the program builds this full reduction leaves every table
    non-empty exactly when the join has a row.
    """
    rows: dict[str, set[int]] = {
        table: set(range(columns.num_rows(table))) for table in query.tables
    }
    for position, predicate in predicates.items():
        ref = query.projections[position]
        values = columns.values(ref.table, ref.column)
        rows[ref.table] = {
            row
            for row in rows[ref.table]
            if values[row] is not None and predicate(values[row])
        }
    sides = []
    for edge in query.joins:
        sides.append((edge.child_table, edge.child_column, edge.parent_table, edge.parent_column))
        sides.append((edge.parent_table, edge.parent_column, edge.child_table, edge.child_column))
    changed = True
    while changed and all(rows.values()):
        changed = False
        for table, column, other, other_column in sides:
            other_values = columns.values(other, other_column)
            keys = {other_values[row] for row in rows[other]}
            keys.discard(None)
            values = columns.values(table, column)
            kept = {row for row in rows[table] if values[row] in keys}
            if len(kept) != len(rows[table]):
                rows[table] = kept
                changed = True
    return all(rows.values())


def check_answer(database, queries, spec: MappingSpec, oracle: bool = True) -> list[str]:
    """Problems found in ``queries`` as an answer to ``spec`` (empty: none).

    Every query must hold for every sample row of the spec.  With
    ``oracle``, the first one is confirmed by the reference oracle too;
    its nested loops suit Mondial-sized tables only.
    """
    problems = []
    columns = ColumnCache(database)
    samples = sample_predicates(spec)
    for query in queries:
        for predicates in samples:
            if not holds(columns, query, predicates):
                problems.append(f"no row of {query} matches a sample row")
                break
    if oracle and queries:
        for predicates in samples:
            if not exists_reference(database, queries[0], predicates):
                problems.append(f"reference oracle rejects {queries[0]}")
    return problems


def parse_sql(database, sql: str) -> ProjectJoinQuery:
    """The query an answer's SQL string renders.

    Answers that crossed the wire carry SQL text only; this reads back the
    plain ``SELECT t.c, ... FROM t, ... [WHERE a.x = b.y AND ...]`` form the
    program renders for unquoted identifiers and resolves each join
    condition to one of the database's foreign keys.
    """
    head, __, where = sql.partition(" WHERE ")
    select, __, __ = head.partition(" FROM ")
    if not select.startswith("SELECT "):
        raise ValueError(f"not a SELECT: {sql!r}")
    projections = tuple(
        ColumnRef(*item.strip().split(".")) for item in select[7:].split(",")
    )
    keys = set(database.foreign_keys)
    joins = []
    for condition in where.split(" AND ") if where else ():
        left, __, right = condition.partition(" = ")
        edge = ForeignKey(*left.split("."), *right.split("."))
        if edge not in keys:
            raise ValueError(f"no foreign key {condition!r}")
        joins.append(edge)
    return ProjectJoinQuery(projections, tuple(joins))
