"""Flat-program compilation of HoTTSQL queries for repeated evaluation.

The tree-walking evaluator in :mod:`repro.engine.eval` re-dispatches on
AST node classes for *every* row of *every* instance it evaluates — fine
for a single oracle run, ruinous for the bounded-exhaustive disprover,
which evaluates the same two queries on hundreds of thousands of
enumerated instances.

This module compiles a query **once** into a few generated Python
functions.  The unit of compilation is the *block*: a maximal
``Select? ∘ Where* ∘ Product``-tree, optionally under ``Distinct``, which
becomes **one** function holding one loop nest (produce/consume
compilation, Neumann, VLDB 2011) — no intermediate join result is ever
materialized:

* **one loop per leaf** — a ``Table`` leaf iterates ``rels[i]`` (or a
  constant relation baked in at compile time); any other leaf (a union,
  a difference, a ``Distinct`` over a table, a ``Select`` under a
  ``Where``) is compiled on its own and evaluated once, before the
  loops.  An empty leaf returns the empty relation at once;
* **rows as pair fragments** — the product row is the ``("pair", …)``
  code fragment over the loop variables ``_r0, _r1, …``, so a
  ``LeftP``/``RightP`` chain resolves to a plain variable reference at
  compile time: ``Compose(RightP, LeftP)`` over ``(g, (_r0, _r1))`` is
  just ``_r0``;
* **conjunct placement** — every ``Where`` in the tree (also one nested
  under a product) is split at ``AND``, and each conjunct becomes an
  ``if`` at the shallowest loop that binds every loop variable it
  mentions; a conjunct on the context ``g`` alone is checked once,
  before the loops.  Conjuncts at one level keep their source order.
  Moving a conjunct ahead of another is sound because predicates are
  pure: every symbol the SQL front end emits is total;
* **output** — the projection image is written straight into the result
  dict.  Under ``NAT`` the count is the product of the loop annotations
  (accumulated when two rows share an image); under ``BOOL`` it is
  ``True``; under a fused ``Distinct`` it is ``1`` and the loops iterate
  keys only.

``UnionAll``, ``Except`` and a ``Distinct`` over a bare table are small
closures that call their children.  Row-level work — projections,
predicates, scalar expressions — is inline source (tuple indexing and
operator syntax).  All other per-query decisions are made at compile
time too:

* symbol resolution — scalar functions, aggregates, comparison
  predicates, and metavariable bindings (from a base
  :class:`~repro.engine.database.Interpretation`) are looked up once and
  bound as closure parameters of the generated code; correlated
  ``EXISTS``/aggregate subqueries are blocks of their own, called with
  the current row as their context;
* semiring specialization — multiplicities evaluate by *counting*:
  plain ``int`` arithmetic under ``NAT``, native boolean operations
  under ``BOOL``.  Exotic semirings (``NAT_INF`` cardinals, tropical,
  provenance polynomials) raise :class:`CompileError` so callers fall
  back to the generic interpreter — the disprover's differential suite
  pins the two evaluators to each other on the supported semirings.  So
  does a FROM list wider than CPython's limit of 20 nested loops;
* relation representation — a relation is a plain ``dict`` mapping rows
  to non-zero counts (the disprover's cached instance batches build
  these dicts once per enumerated table instance and share them across
  every product combination), so evaluating one instance allocates no
  :class:`~repro.semiring.krelation.KRelation` objects at all.

Compiled signature convention: every query becomes
``f(rels, g) -> Dict[row, count]`` where ``rels`` is the tuple of
per-table instance dicts, positionally indexed by the table order fixed
at compile time, and ``g`` is the context tuple (``()`` for closed
queries).
"""

from __future__ import annotations

import re
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..core import ast
from ..semiring.krelation import KRelation
from ..semiring.semirings import BOOL, NAT, Semiring
from .database import Interpretation
from .eval import EvaluationError

#: Semirings the counting compiler supports.  ``NAT`` counts with plain
#: ints, ``BOOL`` with native bools; everything else falls back to the
#: generic interpreter.
COMPILED_SEMIRINGS = (NAT, BOOL)

QueryFn = Callable[[Tuple[Dict[Any, Any], ...], Any], Dict[Any, Any]]

#: Operators fused into one loop nest (see the module docstring).
_BLOCK_NODES = (ast.Select, ast.Where, ast.Product)
#: A loop variable in generated source: the row bound by loop ``i``.
_LOOP_VAR = re.compile(r"\b_r(\d+)\b")


class CompileError(EvaluationError):
    """The query (or semiring) is outside the compiled evaluator's domain.

    Subclasses :class:`~repro.engine.eval.EvaluationError` so call sites
    that already treat "cannot evaluate concretely" as an abstention
    handle "cannot compile" the same way.  The disprover catches it and
    falls back to the tree-walking interpreter.
    """


class CompiledPair:
    """Two queries compiled against one shared table layout.

    ``differs(rels)`` is the disprover's hot call: evaluate both sides
    on one instance and report whether they disagree.
    """

    __slots__ = ("lhs", "rhs", "table_order", "semiring")

    def __init__(self, lhs: QueryFn, rhs: QueryFn,
                 table_order: Tuple[str, ...], semiring: Semiring) -> None:
        self.lhs = lhs
        self.rhs = rhs
        self.table_order = table_order
        self.semiring = semiring

    def differs(self, rels: Tuple[Dict[Any, Any], ...]) -> bool:
        return self.lhs(rels, ()) != self.rhs(rels, ())

    def evaluate(self, rels: Tuple[Dict[Any, Any], ...]
                 ) -> Tuple[Dict[Any, Any], Dict[Any, Any]]:
        return self.lhs(rels, ()), self.rhs(rels, ())


def relation_to_counts(rel: KRelation, semiring: Semiring) -> Dict[Any, Any]:
    """A K-relation as the plain count dict the compiled programs consume."""
    if rel.semiring is not semiring:
        raise CompileError(
            f"relation is annotated over {rel.semiring.name}, compilation "
            f"requested over {semiring.name}")
    return {row: annot for row, annot in rel.items()}


def counts_to_relation(counts: Dict[Any, Any],
                       semiring: Semiring) -> KRelation:
    """Rehydrate a compiled result into a K-relation (for records/tests)."""
    return KRelation(semiring, counts)


def compile_pair(q1: ast.Query, q2: ast.Query,
                 table_order: Sequence[str],
                 interp: Optional[Interpretation] = None,
                 semiring: Semiring = NAT) -> CompiledPair:
    """Compile two closed queries over one positional table layout.

    Args:
        q1, q2: the queries (may reference metavariables, provided
            ``interp`` binds them).
        table_order: the table names whose instances arrive positionally
            in ``rels``; any other table must be a constant relation in
            ``interp`` and is baked into the program.
        interp: metavariable bindings and constant relations, resolved
            **at compile time**.
        semiring: must be one of :data:`COMPILED_SEMIRINGS`.
    """
    compiler = _Compiler(table_order, interp, semiring)
    return CompiledPair(compiler.query(q1), compiler.query(q2),
                        tuple(table_order), semiring)


def compile_query(query: ast.Query, table_order: Sequence[str],
                  interp: Optional[Interpretation] = None,
                  semiring: Semiring = NAT) -> QueryFn:
    """Compile one query; see :func:`compile_pair` for the conventions."""
    return _Compiler(table_order, interp, semiring).query(query)


# ---------------------------------------------------------------------------
# Row-level code generation
# ---------------------------------------------------------------------------
#
# Row-level terms are represented as code fragments while compiling:
# ``("atom", text)`` is an opaque Python expression, ``("pair", a, b)``
# a tuple construction whose components are still addressable — so
# ``LeftP`` applied to a pair fragment selects the component *at compile
# time* instead of emitting ``(...)[0]``.  The fragments reference
# runtime objects (interpreter symbols, constants, compiled subqueries)
# through names bound by an :class:`_Env`, which become parameters of
# the generated factory function — closure variables at run time.

_Code = Tuple[Any, ...]


def _atom(text: str) -> _Code:
    return ("atom", text)


def _render(code: _Code) -> str:
    if code[0] == "atom":
        return code[1]
    return f"({_render(code[1])}, {_render(code[2])})"


def _component(code: _Code, index: int) -> _Code:
    if code[0] == "pair":
        return code[1 + index]
    return _atom(f"{_render(code)}[{index}]")


class _Env:
    """Runtime objects referenced from generated source, by fresh name."""

    def __init__(self) -> None:
        self.values: Dict[str, Any] = {}

    def bind(self, obj: Any) -> str:
        name = f"_b{len(self.values)}"
        self.values[name] = obj
        return name


def _build(source_body: str, env: _Env):
    """exec a factory around ``source_body`` and close over the env.

    ``source_body`` must define ``_fn`` at one level of indentation; the
    env's names are the factory's parameters, so references inside the
    generated code are fast closure loads, not globals.
    """
    names = list(env.values)
    source = (f"def _make({', '.join(names)}):\n"
              f"{source_body}"
              f"    return _fn\n")
    namespace: Dict[str, Any] = {}
    try:
        exec(source, namespace)  # noqa: S102 - source is generated right here
    except (SyntaxError, RecursionError) as exc:
        # CPython caps statically nested loops (20): a FROM list that
        # wide falls back to the interpreter.
        raise CompileError(f"generated program does not compile: {exc}") \
            from exc
    return namespace["_make"](*(env.values[n] for n in names))


class _Compiler:
    """One compilation context: table slots + resolved symbols + mode."""

    def __init__(self, table_order: Sequence[str],
                 interp: Optional[Interpretation],
                 semiring: Semiring) -> None:
        if semiring not in COMPILED_SEMIRINGS:
            raise CompileError(
                f"semiring {semiring.name!r} is outside the counting "
                f"compiler's domain (supported: "
                f"{', '.join(s.name for s in COMPILED_SEMIRINGS)})")
        self.slots = {name: i for i, name in enumerate(table_order)}
        self.interp = interp if interp is not None else Interpretation()
        self.semiring = semiring
        self.nat = semiring is NAT

    def _lookup(self, getter: Callable[[str], Any], name: str) -> Any:
        try:
            return getter(name)
        except KeyError as exc:
            raise CompileError(str(exc)) from exc

    # -- queries (one call per instance, not per row) -----------------------

    def query(self, q: ast.Query) -> QueryFn:
        if isinstance(q, ast.Table):
            slot = self.slots.get(q.name)
            if slot is not None:
                return lambda rels, g, _i=slot: rels[_i]
            baked = self._baked(q.name)
            return lambda rels, g, _d=baked: _d

        if isinstance(q, _BLOCK_NODES):
            return self.block(q, distinct=False)

        if isinstance(q, ast.Distinct):
            if isinstance(q.query, _BLOCK_NODES):
                return self.block(q.query, distinct=True)
            child = self.query(q.query)
            one = 1 if self.nat else True

            def distinct_run(rels, g, _c=child, _one=one):
                return dict.fromkeys(_c(rels, g), _one)
            return distinct_run

        if isinstance(q, ast.UnionAll):
            left, right = self.query(q.left), self.query(q.right)
            if self.nat:
                def union_nat(rels, g, _l=left, _r=right):
                    out = dict(_l(rels, g))
                    get = out.get
                    for row, annot in _r(rels, g).items():
                        out[row] = get(row, 0) + annot
                    return out
                return union_nat

            def union_bool(rels, g, _l=left, _r=right):
                out = dict(_l(rels, g))
                out.update(_r(rels, g))
                return out
            return union_bool

        if isinstance(q, ast.Except):
            left, right = self.query(q.left), self.query(q.right)

            # R EXCEPT S = λt. R(t) × (‖S(t)‖ → 0): full multiplicity
            # iff absent from S — support membership, in every positive
            # semiring.
            def except_run(rels, g, _l=left, _r=right):
                rhs = _r(rels, g)
                return {row: annot for row, annot in _l(rels, g).items()
                        if row not in rhs}
            return except_run

        raise CompileError(f"cannot compile query node: {q!r}")

    def _baked(self, name: str) -> Dict[Any, Any]:
        rel = self._lookup(self.interp.relation, name)
        return relation_to_counts(rel, self.semiring)

    # -- fused blocks (one loop nest per Select? ∘ Where* ∘ Product tree) ---

    def block(self, q: ast.Query, distinct: bool) -> QueryFn:
        env = _Env()
        projection = None
        if isinstance(q, ast.Select):
            projection, q = q.projection, q.query
        leaves: List[ast.Query] = []
        conjuncts: List[str] = []
        row = self._tree(q, env, leaves, conjuncts)
        image = (row if projection is None else
                 self.projection(projection, ("pair", _atom("g"), row), env))

        # Conjunct placement: each conjunct runs at the shallowest loop
        # that binds every loop variable it mentions (-1: before the
        # loops), keeping source order within a level.
        levels: List[List[str]] = [[] for _ in range(len(leaves) + 1)]
        for cond in conjuncts:
            used = [int(i) for i in _LOOP_VAR.findall(cond)]
            levels[max(used, default=-1) + 1].append(cond)

        def guard(level: int) -> str:
            return " and ".join(levels[level + 1])

        lines = ["    def _fn(rels, g):\n"]
        if levels[0]:
            lines.append(f"        if not ({guard(-1)}):\n"
                         f"            return {{}}\n")
        for i, leaf in enumerate(leaves):
            if isinstance(leaf, ast.Table):
                slot = self.slots.get(leaf.name)
                source = (f"rels[{slot}]" if slot is not None
                          else env.bind(self._baked(leaf.name)))
            else:
                source = f"{env.bind(self.query(leaf))}(rels, g)"
            lines.append(f"        _l{i} = {source}\n"
                         f"        if not _l{i}:\n"
                         f"            return {{}}\n")

        # Multiplicities: the product of the loop annotations under NAT;
        # a constant under BOOL or a fused DISTINCT, where the loops
        # iterate keys only.
        counted = self.nat and not distinct
        img = _render(image)
        annot = " * ".join(f"_a{i}" for i in range(len(leaves)))
        head = ["out = {}"]
        if not counted:
            store = [f"out[{img}] = {1 if self.nat else True}"]
        elif projection is None:
            # Product rows are unique: each key is written once.
            store = [f"out[{img}] = {annot}"]
        else:
            # Distinct loop rows can share an image: accumulate.
            head.append("_get = out.get")
            store = [f"_img = {img}", f"out[_img] = _get(_img, 0) + {annot}"]
        indent = "        "
        lines += [f"{indent}{line}\n" for line in head]
        for i in range(len(leaves)):
            lines.append(f"{indent}for _r{i}, _a{i} in _l{i}.items():\n"
                         if counted else f"{indent}for _r{i} in _l{i}:\n")
            indent += "    "
            if levels[i + 1]:
                lines.append(f"{indent}if not ({guard(i)}):\n"
                             f"{indent}    continue\n")
        lines += [f"{indent}{line}\n" for line in store]
        lines.append("        return out\n")
        return _build("".join(lines), env)

    def _tree(self, q: ast.Query, env: _Env, leaves: List[ast.Query],
              conjuncts: List[str]) -> _Code:
        """Flatten a Product/Where tree into loop leaves and conjuncts.

        Returns the tree's row as a fragment over the loop variables
        ``_r<i>``; conjuncts are appended in evaluation order (inner
        ``Where`` before outer, left operand before right).
        """
        if isinstance(q, ast.Product):
            left = self._tree(q.left, env, leaves, conjuncts)
            right = self._tree(q.right, env, leaves, conjuncts)
            return ("pair", left, right)
        if isinstance(q, ast.Where):
            row = self._tree(q.query, env, leaves, conjuncts)
            ctx = ("pair", _atom("g"), row)
            conjuncts += [_render(cond) for cond
                          in self.conjuncts(q.predicate, ctx, env)]
            return row
        leaves.append(q)
        return _atom(f"_r{len(leaves) - 1}")

    # -- predicates (generated source over the context fragment) ------------

    def conjuncts(self, p: ast.Predicate, var: _Code,
                  env: _Env) -> List[_Code]:
        """``p`` split at ``AND`` (also under casts), in source order."""
        if isinstance(p, ast.PredAnd):
            return (self.conjuncts(p.left, var, env)
                    + self.conjuncts(p.right, var, env))
        if isinstance(p, ast.CastPred):
            recast = self.projection(p.projection, var, env)
            return self.conjuncts(p.predicate, recast, env)
        return [self.predicate(p, var, env)]

    def predicate(self, p: ast.Predicate, var: _Code, env: _Env) -> _Code:
        if isinstance(p, ast.PredEq):
            left = _render(self.expression(p.left, var, env))
            right = _render(self.expression(p.right, var, env))
            return _atom(f"({left} == {right})")
        if isinstance(p, ast.PredAnd):
            left = _render(self.predicate(p.left, var, env))
            right = _render(self.predicate(p.right, var, env))
            return _atom(f"({left} and {right})")
        if isinstance(p, ast.PredOr):
            left = _render(self.predicate(p.left, var, env))
            right = _render(self.predicate(p.right, var, env))
            return _atom(f"({left} or {right})")
        if isinstance(p, ast.PredNot):
            operand = _render(self.predicate(p.operand, var, env))
            return _atom(f"(not {operand})")
        if isinstance(p, ast.PredTrue):
            return _atom("True")
        if isinstance(p, ast.PredFalse):
            return _atom("False")
        if isinstance(p, ast.Exists):
            ref = env.bind(self.query(p.query))
            return _atom(f"bool({ref}(rels, {_render(var)}))")
        if isinstance(p, ast.CastPred):
            recast = self.projection(p.projection, var, env)
            return self.predicate(p.predicate, recast, env)
        if isinstance(p, ast.PredVar):
            ref = env.bind(self._lookup(self.interp.predicate, p.name))
            return _atom(f"{ref}({_render(var)})")
        if isinstance(p, ast.PredFunc):
            ref = env.bind(self._lookup(self.interp.predicate, p.name))
            args = ", ".join(_render(self.expression(a, var, env))
                             for a in p.args)
            return _atom(f"{ref}({args})")
        raise CompileError(f"cannot compile predicate node: {p!r}")

    # -- expressions ---------------------------------------------------------

    def expression(self, e: ast.Expression, var: _Code, env: _Env) -> _Code:
        if isinstance(e, ast.P2E):
            return self.projection(e.projection, var, env)
        if isinstance(e, ast.Const):
            return _atom(env.bind(e.value))
        if isinstance(e, ast.Func):
            ref = env.bind(self._lookup(self.interp.function, e.name))
            args = ", ".join(_render(self.expression(a, var, env))
                             for a in e.args)
            return _atom(f"{ref}({args})")
        if isinstance(e, ast.Agg):
            fn_ref = env.bind(self._lookup(self.interp.aggregate, e.name))
            q_ref = env.bind(self.query(e.query))
            if self.nat:
                return _atom(
                    f"{fn_ref}(list({q_ref}(rels, {_render(var)}).items()))")
            return _atom(f"{fn_ref}([(_ar, 1) for _ar in "
                         f"{q_ref}(rels, {_render(var)})])")
        if isinstance(e, ast.CastExpr):
            recast = self.projection(e.projection, var, env)
            return self.expression(e.expression, recast, env)
        if isinstance(e, ast.ExprVar):
            ref = env.bind(self._lookup(self.interp.expression, e.name))
            return _atom(f"{ref}({_render(var)})")
        raise CompileError(f"cannot compile expression node: {e!r}")

    # -- projections ---------------------------------------------------------

    def projection(self, p: ast.Projection, var: _Code, env: _Env) -> _Code:
        if isinstance(p, ast.Star):
            return var
        if isinstance(p, ast.LeftP):
            return _component(var, 0)
        if isinstance(p, ast.RightP):
            return _component(var, 1)
        if isinstance(p, ast.EmptyP):
            return _atom("()")
        if isinstance(p, ast.Compose):
            return self.projection(p.second,
                                   self.projection(p.first, var, env), env)
        if isinstance(p, ast.Duplicate):
            return ("pair", self.projection(p.left, var, env),
                    self.projection(p.right, var, env))
        if isinstance(p, ast.E2P):
            return self.expression(p.expression, var, env)
        if isinstance(p, ast.PVar):
            ref = env.bind(self._lookup(self.interp.projection, p.name))
            return _atom(f"{ref}({_render(var)})")
        raise CompileError(f"cannot compile projection node: {p!r}")


__all__ = [
    "COMPILED_SEMIRINGS",
    "CompileError",
    "CompiledPair",
    "compile_pair",
    "compile_query",
    "counts_to_relation",
    "relation_to_counts",
]
