"""Seeded corpus of SQL equivalence questions with independent labels.

Every pair is *planted*: a family builds a query, a rewrite that is sound
under bag semantics, and mutants of the rewrite that usually are not.  A
plant is only a hypothesis — a mutant can be equivalent by accident
(``x0.a = x1.b AND x1.b = x2.a AND x2.a = 1`` already implies
``x0.a = 1``) — so no pair is kept until stdlib ``sqlite3`` confirms its
label: equal bags on every pooled random instance for an equivalent pair,
a distinguishing instance for a non-equivalent one.  ``repro`` is never
consulted, so the labels that check its verdicts are independent of it.

The SQL stays inside the NULL-free fragment on which SQLite and the
HoTTSQL semantics agree: integer columns only, no scalar aggregate over
possibly-empty input, no ``/``, no bag ``EXCEPT``.

Composition is stratified, not sampled: the corpus cycles through a fixed
list of slots (family × label × constant range) in a seeded order, so two
seeds give different queries in the same proportions.  That keeps the
run-to-run spread of the benchmark's medians small.
"""

from __future__ import annotations

import random
import re
import sqlite3
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

TABLES = ("R", "S", "T")
COLUMNS = ("a", "b")
TABLE_SPECS = tuple(f"{t}(a:int,b:int)" for t in TABLES)

#: The disprover's default int domain; "narrow" constants come from it.
SMALL_DOMAIN = (0, 1)
#: The wider range of "wide" constants (never in the small domain) and of
#: the instances that must be able to tell such constants apart.
WIDE_CONSTANTS = (2, 3)
WIDE_DOMAIN = SMALL_DOMAIN + WIDE_CONSTANTS


@dataclass(frozen=True)
class Pair:
    """One labelled equivalence question."""

    sql1: str
    sql2: str
    #: the label confirmed by sqlite3 (True = equal bags everywhere).
    equivalent: bool
    family: str
    #: "narrow" (constants in the disprover's domain) or "wide".
    mode: str


# ---------------------------------------------------------------------------
# Independent oracle
# ---------------------------------------------------------------------------

Instance = Dict[str, List[Tuple[int, ...]]]


def load_instance(instance: Instance) -> sqlite3.Connection:
    """An in-memory database holding ``instance`` (absent tables empty)."""
    db = sqlite3.connect(":memory:")
    for table in TABLES:
        db.execute(f"CREATE TABLE {table} (a INTEGER NOT NULL, "
                   f"b INTEGER NOT NULL)")
        db.executemany(f"INSERT INTO {table} VALUES (?, ?)",
                       instance.get(table, ()))
    return db


def bag(db: sqlite3.Connection, sql: str) -> Counter:
    return Counter(db.execute(sql).fetchall())


def _random_instance(rng: random.Random, domain: Sequence[int],
                     max_rows: int) -> Instance:
    return {t: [(rng.choice(domain), rng.choice(domain))
                for _ in range(rng.randint(0, max_rows))] for t in TABLES}


class Oracle:
    """A seeded pool of sqlite3 instances over the small and wide domains.

    Small-domain instances have few rows and duplicates (the shapes the
    disprover enumerates); wide-domain instances are denser, so the joins
    and filters of a query over ``WIDE_CONSTANTS`` are satisfiable.
    """

    def __init__(self, seed) -> None:
        rng = random.Random(f"oracle/{seed}")
        instances = [_random_instance(rng, SMALL_DOMAIN, 3)
                     for _ in range(8)]
        instances += [_random_instance(rng, WIDE_DOMAIN, 7)
                      for _ in range(16)]
        self.dbs = [load_instance(i) for i in instances]

    def bags(self, sql: str) -> List[Counter]:
        return [bag(db, sql) for db in self.dbs]

    def differs(self, sql1, sql2: str) -> bool:
        """True when some pooled instance gives the two queries different
        bags (so they are certainly not equivalent).  ``sql1`` may be
        given as its precomputed :meth:`bags`."""
        if isinstance(sql1, str):
            sql1 = self.bags(sql1)
        return any(b != bag(db, sql2) for db, b in zip(self.dbs, sql1))

    def close(self) -> None:
        for db in self.dbs:
            db.close()


def replay_differs(record: dict, sql1: str, sql2: str) -> bool:
    """Replay a ``CounterexampleRecord.to_dict()`` witness in sqlite3:
    True when the two queries' bags differ on it (a valid witness)."""
    instance: Instance = {}
    for name, rows in record["tables"]:
        instance[name] = [tuple(row) for row, mult in rows
                          for _ in range(int(mult))]
    db = load_instance(instance)
    try:
        return bag(db, sql1) != bag(db, sql2)
    finally:
        db.close()


# ---------------------------------------------------------------------------
# Query families
# ---------------------------------------------------------------------------

#: A family: (rng, constant drawer, tables, shape) → (query, sound
#: rewrite, candidate mutants).  The shape fixes what drives a pair's cost
#: (join width, DISTINCT); everything else is drawn from ``rng``.
Family = Callable[[random.Random, Callable[[], int], Sequence[str], tuple],
                  Tuple[str, str, List[str]]]


def _tables(rng: random.Random, tables: Sequence[str], k: int) -> List[str]:
    """``k`` table names using min(k, len(tables)) distinct tables, so the
    disprover's instance space depends on the shape, not on the draw."""
    perm = list(tables)
    rng.shuffle(perm)
    return [perm[i % len(perm)] for i in range(k)]


def _join(rng: random.Random, tables: Sequence[str], k: int
          ) -> Tuple[List[Tuple[str, str]], List[str]]:
    """``k`` aliased tables chained by equi-join predicates."""
    froms = [(t, f"x{i}") for i, t in enumerate(_tables(rng, tables, k))]
    preds = [f"x{rng.randrange(i)}.{rng.choice(COLUMNS)} = "
             f"x{i}.{rng.choice(COLUMNS)}" for i in range(1, k)]
    return froms, preds


def _col(rng: random.Random, k: int) -> str:
    return f"x{rng.randrange(k)}.{rng.choice(COLUMNS)}"


def _from(froms: Sequence[Tuple[str, str]]) -> str:
    return ", ".join(f"{t} {a}" for t, a in froms)


def _where(preds: Sequence[str]) -> str:
    return f" WHERE {' AND '.join(preds)}" if preds else ""


def _extra(rng: random.Random, const: Callable[[], int], k: int
           ) -> List[str]:
    """An optional extra filter conjunct (widens each shape's space)."""
    return [f"{_col(rng, k)} <> {const()}"] if rng.random() < .5 else []


def _flip_eq(pred: str) -> str:
    left, op, right = pred.split(" ", 2)
    return f"{right} {op} {left}" if op == "=" else pred


def fam_join(rng, const, tables, shape):
    """Reordered FROM list and WHERE conjuncts (alpha-hash / CQ tiers)."""
    k, distinct = shape
    froms, joins = _join(rng, tables, k)
    c1, c2 = const(), const()
    f1, f2 = _col(rng, k), _col(rng, k)
    filters = [f"{f1} = {c1}"] + ([f"{f2} < {c2}"] if rng.random() < .5
                                  else [])
    items = [f"{_col(rng, k)} AS c0"] + ([f"{_col(rng, k)} AS c1"]
                                         if rng.random() < .6 else [])
    sel = f"SELECT {'DISTINCT ' if distinct else ''}{', '.join(items)}"
    preds = joins + filters
    left = f"{sel} FROM {_from(froms)}{_where(preds)}"
    shuffled = [_flip_eq(p) for p in preds]
    rng.shuffle(shuffled)
    body = f" FROM {_from(froms[::-1])}"
    right = f"{sel}{body}{_where(shuffled)}"
    mutants = [
        right.replace(f"{f1} = {c1}", f"{f1} = {c1 + 1}"),
        right.replace(f"{f1} = {c1}", f"{f1} <> {c1}"),
        f"{sel}{body}{_where([p for p in shuffled if p != f'{f1} = {c1}'])}",
        f"SELECT {'' if distinct else 'DISTINCT '}{', '.join(items)}{body}"
        f"{_where(shuffled)}",
    ]
    if joins:
        mutants.append(f"{sel}{body}{_where(shuffled[1:])}")
    return left, right, mutants


def fam_selfjoin(rng, const, tables, shape):
    """Redundant self-join under DISTINCT (CQ minimization)."""
    (k,) = shape
    froms, joins = _join(rng, tables, k)
    c, c2 = const(), const()
    f, op = _col(rng, k), rng.choice(("=", "<", "<>"))
    items = f"x0.a AS c0, {_col(rng, k)} AS c1"
    preds = joins + [f"{f} {op} {c}"] + (
        [f"{_col(rng, k)} = {c2}"] if rng.random() < .5 else [])
    left = f"SELECT DISTINCT {items} FROM {_from(froms)}{_where(preds)}"
    dup = ["x0.a = xs.a", "x0.b = xs.b"]
    self_from = _from(list(froms) + [(froms[0][0], "xs")])
    right = (f"SELECT DISTINCT {items} FROM {self_from}"
             f"{_where(preds + dup)}")
    mutants = [
        f"SELECT {items} FROM {self_from}{_where(preds + dup)}",
        f"SELECT DISTINCT x0.a AS c0, xs.b AS c1 FROM {self_from}"
        f"{_where(preds + dup[:1])}",
        right.replace(f"{f} {op} {c}", f"{f} {op} {c + 1}"),
    ]
    return left, right, mutants


def fam_exists(rng, const, tables, shape):
    """Correlated EXISTS versus a DISTINCT semi-join."""
    t0, t1 = _tables(rng, tables, 2)
    c, c2 = const(), const()
    j0, j1, fc = rng.choice(COLUMNS), rng.choice(COLUMNS), rng.choice(COLUMNS)
    out, op = rng.choice(COLUMNS), rng.choice(("=", "<", "<>"))
    cond = f"y.{j1} = x0.{j0} AND y.{fc} {op} {c}"
    outer = rng.choice(("", f" AND x0.{rng.choice(COLUMNS)} = {c2}"))
    left = (f"SELECT DISTINCT x0.{out} AS c0 FROM {t0} x0 WHERE EXISTS "
            f"(SELECT * FROM {t1} y WHERE {cond}){outer}")
    right = (f"SELECT DISTINCT x0.{out} AS c0 FROM {t0} x0, {t1} y "
             f"WHERE {cond}{outer}")
    mutants = [
        left.replace("WHERE EXISTS", "WHERE NOT EXISTS"),
        right.replace("SELECT DISTINCT", "SELECT"),
        right.replace(f"{op} {c}", f"{op} {c + 1}"),
        right.replace(f"y.{fc} {op} {c}", f"y.{fc} >= {c}"),
    ]
    return left, right, mutants


def fam_derived(rng, const, tables, shape):
    """Selection pushed through a derived table, which is then flattened."""
    (k,) = shape
    froms, joins = _join(rng, tables, k)
    e0, e1 = _col(rng, k), _col(rng, k)
    c, op = const(), rng.choice(("=", "<", "<>"))
    joins = joins + _extra(rng, const, k)
    inner = (f"SELECT {e0} AS p, {e1} AS q FROM {_from(froms)}"
             f"{_where(joins)}")
    left = f"SELECT t.p AS c0 FROM ({inner}) t WHERE t.q {op} {c}"
    pushed = f"{e1} {op} {c}"
    right = (f"SELECT {e0} AS c0 FROM {_from(froms)}"
             f"{_where(joins + [pushed])}")
    mutants = [
        right.replace(pushed, f"{e1} {op} {c + 1}"),
        f"SELECT {e1} AS c0 FROM {_from(froms)}{_where(joins + [pushed])}",
        right.replace(pushed, f"{e1} >= {c}"),
        f"SELECT t.p AS c0 FROM ({inner}) t WHERE t.p {op} {c}",
    ]
    return left, right, mutants


def fam_union(rng, const, tables, shape):
    """Selection over UNION ALL, distributed into (reordered) branches."""
    t0, t1 = _tables(rng, tables, 2)
    c0, c1 = const(), const()
    p0, q0, p1, q1, fc = (rng.choice(COLUMNS) for _ in range(5))
    op = rng.choice(("<>", "<", "="))
    on_p = rng.random() < .5
    b0 = (f"SELECT x.{p0} AS p, x.{q0} AS q FROM {t0} x "
          f"WHERE x.{fc} {op} {c1}")
    b1 = f"SELECT y.{p1} AS p, y.{q1} AS q FROM {t1} y"
    left = (f"SELECT t.p AS c0, t.q AS c1 FROM ({b0} UNION ALL {b1}) t "
            f"WHERE t.{'p' if on_p else 'q'} = {c0}")
    f0 = f"x.{p0 if on_p else q0} = {c0}"
    f1 = f"y.{p1 if on_p else q1} = {c0}"
    r0 = (f"SELECT x.{p0} AS c0, x.{q0} AS c1 FROM {t0} x "
          f"WHERE x.{fc} {op} {c1} AND {f0}")
    r1_bare = f"SELECT y.{p1} AS c0, y.{q1} AS c1 FROM {t1} y"
    r1 = f"{r1_bare} WHERE {f1}"
    right = f"{r1} UNION ALL {r0}"
    mutants = [
        f"{r1_bare} UNION ALL {r0}",
        f"{r0} UNION ALL {r0}",
        f"{r1} UNION ALL {r0.replace(f0, f0[:-len(str(c0))] + str(c0 + 1))}",
        f"{r1} UNION ALL {r0.replace(f'{op} {c1}', f'>= {c1}')}",
    ]
    return left, right, mutants


def fam_having(rng, const, tables, shape):
    """HAVING on the grouping column pushed down into WHERE."""
    (k,) = shape
    froms, joins = _join(rng, tables, k)
    g, v = _col(rng, k), _col(rng, k)
    agg = rng.choice(("SUM", "COUNT"))
    c, c2 = const(), const()
    joins = joins + ([f"{_col(rng, k)} <> {c2}"] if rng.random() < .5
                     else [])
    head = f"SELECT {g} AS c0, {agg}({v}) AS c1 FROM {_from(froms)}"
    left = f"{head}{_where(joins)} GROUP BY {g} HAVING {g} = {c}"
    right = f"{head}{_where(joins + [f'{g} = {c}'])} GROUP BY {g}"
    other = "COUNT" if agg == "SUM" else "SUM"
    mutants = [
        right.replace(f"{agg}(", f"{other}("),
        right.replace(f"{g} = {c}", f"{g} = {c + 1}"),
        f"{head}{_where(joins + [f'{v} = {c}'])} GROUP BY {g}",
        f"{head}{_where(joins)} GROUP BY {g} HAVING {agg}({v}) > {c}",
    ]
    return left, right, mutants


def fam_arith(rng, const, tables, shape):
    """Commuted ``+``/``*`` operands and a reordered join."""
    (k,) = shape
    froms, joins = _join(rng, tables, k)
    u, v, w = _col(rng, k), _col(rng, k), _col(rng, k)
    c, m = const(), rng.choice((2, 3))
    preds = joins + _extra(rng, const, k) + [f"{w} = {c}"]
    left = (f"SELECT {u} + {v} AS c0, {w} * {m} AS c1 FROM {_from(froms)}"
            f"{_where(preds)}")
    body = f" FROM {_from(froms[::-1])}{_where(preds[::-1])}"
    right = f"SELECT {v} + {u} AS c0, {m} * {w} AS c1{body}"
    mutants = [
        f"SELECT {v} * {u} AS c0, {m} * {w} AS c1{body}",
        f"SELECT {v} + {u} AS c0, {m + 1} * {w} AS c1{body}",
        f"SELECT {v} + {v} AS c0, {m} * {w} AS c1{body}",
        right.replace(f"{w} = {c}", f"{w} = {c + 1}"),
    ]
    return left, right, mutants


def fam_transitive(rng, const, tables, shape):
    """An equality chain with a constant, substituted through."""
    (k,) = shape
    froms = [(t, f"x{i}") for i, t in enumerate(_tables(rng, tables, k))]
    cols = [rng.choice(COLUMNS) for _ in range(k)]
    chain = [f"x{i}.{cols[i]} = x{i + 1}.{cols[i + 1]}" for i in range(k - 1)]
    c = const()
    head, extra = chain[:-1], _extra(rng, const, k)
    last = f"x{k - 1}.{cols[-1]}"
    out = f"SELECT {_col(rng, k)} AS c0 FROM {_from(froms)}"
    left = f"{out}{_where(chain + extra + [f'{last} = {c}'])}"
    pinned = [f"x{i}.{cols[i]} = {c}" for i in range(k)]
    right = f"{out}{_where(head + extra + pinned)}"
    negated = [pinned[0].replace(" = ", " <> ")] + pinned[1:]
    mutants = [
        f"{out}{_where(head + extra + pinned[:-1])}",
        f"{out}{_where(head + extra + pinned[:-1] + [f'{last} = {c + 1}'])}",
        f"{out}{_where(head + extra + negated)}",
    ]
    return left, right, mutants


FAMILIES: Dict[str, Family] = {
    "join": fam_join,
    "selfjoin": fam_selfjoin,
    "exists": fam_exists,
    "derived": fam_derived,
    "union": fam_union,
    "having": fam_having,
    "arith": fam_arith,
    "transitive": fam_transitive,
}

#: Each family's shapes; a slot visits them in turn, so every seed has the
#: same mix of join widths and DISTINCTs (the main drivers of cost).
SHAPES: Dict[str, List[tuple]] = {
    "join": [(k, d) for k in (1, 2, 3, 4) for d in (False, True)],
    "selfjoin": [(1,), (2,)],
    "exists": [()],
    "derived": [(1,), (2,), (3,)],
    "union": [()],
    "having": [(1,), (2,)],
    "arith": [(1,), (2,), (3,)],
    "transitive": [(2,), (3,), (4,)],
}

#: draws per slot before the generator gives up (a too-small family).
MAX_ATTEMPTS = 5000

_INT = re.compile(r"\b\d+\b")


def _constants_in(sql: str) -> set:
    return {int(m) for m in _INT.findall(sql)}


# ---------------------------------------------------------------------------
# Corpus
# ---------------------------------------------------------------------------

class Corpus:
    """A seeded, label-confirmed stream of distinct pairs.

    ``slots`` fixes the composition: each entry is (family, equivalent,
    mode) — repeating a mode in ``modes`` weights it; by default one pair
    in three uses constants the disprover's domain cannot produce — and
    every cycle through the slots (in a seeded order) yields exactly one
    confirmed pair per slot.
    """

    def __init__(self, seed, *, tables: Sequence[str] = TABLES,
                 modes: Sequence[str] = ("narrow", "narrow", "wide"),
                 min_width: int = 1) -> None:
        self.tables = tuple(tables)
        #: each family's shapes with a join width of at least min_width.
        self.shapes = {f: [s for s in shapes if not s or s[0] >= min_width]
                       for f, shapes in SHAPES.items()}
        self.slots = [(f, eq, mode) for f in FAMILIES for mode in modes
                      for eq in (True, False)]
        self.rng = random.Random(f"corpus/{seed}")
        #: slot → visits so far; every seed starts each slot at its first
        #: shape, so any prefix of the stream has the same mix of shapes.
        self._visits = dict.fromkeys(self.slots, 0)
        self.oracle = Oracle(seed)
        #: planted-equivalent pairs sqlite3 refuted (a generator defect).
        self.rejected_equivalent = 0
        self._seen: set = set()

    def _const_fn(self, mode: str) -> Callable[[], int]:
        pool = SMALL_DOMAIN if mode == "narrow" else WIDE_CONSTANTS
        return lambda: self.rng.choice(pool)

    def _confirmed(self, family: str, equivalent: bool, mode: str) -> Pair:
        build, shapes = FAMILIES[family], self.shapes[family]
        visit = self._visits[family, equivalent, mode]
        self._visits[family, equivalent, mode] = visit + 1
        shape = shapes[visit % len(shapes)]
        # Mutants, too, are visited in turn (whether the disprover's domain
        # can show a mutation decides between a quick DISPROVED and an
        # exhaustive UNKNOWN); later ones stand in when one is rejected.
        first_mutant = visit // len(shapes)
        for _ in range(MAX_ATTEMPTS):
            # A pair reads at most two distinct tables.  An UNKNOWN
            # exhausts the disprover's bound, and over three tables that
            # costs ~30x more (0.3-0.8 s), so a handful of such draws would
            # set a whole run's throughput and tail.
            tables = self.rng.sample(self.tables, min(2, len(self.tables)))
            left, right, mutants = build(self.rng, self._const_fn(mode),
                                         tables, shape)
            if mode == "wide" and not _constants_in(left) \
                    & set(WIDE_CONSTANTS):
                continue
            left_bags = self.oracle.bags(left)
            if self.oracle.differs(left_bags, right):
                self.rejected_equivalent += 1
                continue
            if equivalent:
                chosen: Optional[str] = right
            else:
                start = first_mutant % len(mutants)
                mutants = mutants[start:] + mutants[:start]
                chosen = None
                for mutant in mutants:
                    if self.oracle.differs(left_bags, mutant):
                        chosen = mutant
                        break
                if chosen is None:
                    continue
            key = (left, chosen)
            if key in self._seen:
                continue
            self._seen.add(key)
            if self.rng.random() < .5:
                left, chosen = chosen, left
            return Pair(left, chosen, equivalent, family, mode)
        raise RuntimeError(f"no new confirmed {family}/{mode} pair in "
                           f"{MAX_ATTEMPTS} attempts: the family's query "
                           f"space is too small for this corpus size")

    def take(self, n: int) -> List[Pair]:
        """The next ``n`` pairs of the stream."""
        out: List[Pair] = []
        while len(out) < n:
            order = list(self.slots)
            self.rng.shuffle(order)
            for family, eq, mode in order:
                out.append(self._confirmed(family, eq, mode))
                if len(out) == n:
                    break
        return out

    def close(self) -> None:
        self.oracle.close()
