"""The reprolint rule registry and the built-in contract rules.

A rule is a generator function over a :class:`~.engine.ModuleContext`
yielding :class:`~.report.Finding` s, registered with the :func:`rule`
decorator -- the same ordered, extensible registry pattern as
:mod:`repro.lint.rules`, turned on the codebase itself.

Built-in catalogue (see ``docs/static-analysis.md`` for examples):

==========================  ========  ==================================
id                          severity  enforces
==========================  ========  ==================================
``rng-discipline``          error     all randomness flows through the
                                      seeded ``repro.mc.sampler``
                                      stream helpers
``fingerprint-determinism`` error     no wall clock / uuid / urandom /
                                      unsorted JSON in fingerprinted
                                      paths
``fingerprint-completeness`` error    every ``Workload`` field is read
                                      by ``config()`` (or exempt)
``lock-discipline``         error     lock-protected fields are never
                                      touched outside the lock
``telemetry-hygiene``       error     spans open via ``with``; metric/
                                      span names follow the documented
                                      taxonomy
``error-contract``          error     no bare ``except:`` or silently
                                      swallowed broad excepts
``suppression-hygiene``     error     every suppression names known
                                      rules and carries a reason
==========================  ========  ==================================
"""

from __future__ import annotations

import ast
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass

from .engine import ModuleContext
from .report import SEVERITIES, Finding

__all__ = ["Rule", "RULES", "rule", "iter_rules", "run_rules"]


@dataclass(frozen=True)
class Rule:
    """A registered rule: identifier, default severity, check function."""

    rule_id: str
    severity: str
    summary: str
    check: Callable[[ModuleContext], Iterator[Finding]]


#: Ordered registry of every known rule, id -> :class:`Rule`.
RULES: dict[str, Rule] = {}


def rule(rule_id: str, severity: str, summary: str):
    """Register a reprolint rule; decorator over a generator of findings."""
    if severity not in SEVERITIES:
        raise ValueError(f"rule {rule_id!r}: unknown severity {severity!r}")

    def decorator(check):
        if rule_id in RULES:
            raise ValueError(f"duplicate reprolint rule id {rule_id!r}")
        RULES[rule_id] = Rule(rule_id, severity, summary, check)
        return check
    return decorator


def iter_rules(only: Iterable[str] | None = None) -> list[Rule]:
    """The registered rules, optionally restricted to ids in ``only``."""
    if only is None:
        return list(RULES.values())
    unknown = set(only) - set(RULES)
    if unknown:
        raise ValueError(f"unknown reprolint rule id(s): {sorted(unknown)}")
    wanted = set(only)
    return [r for r in RULES.values() if r.rule_id in wanted]


def run_rules(ctx: ModuleContext,
              only: Iterable[str] | None = None) -> list[Finding]:
    """Run the (selected) rules over ``ctx`` and collect their findings."""
    findings: list[Finding] = []
    for lint_rule in iter_rules(only):
        findings.extend(lint_rule.check(ctx))
    return findings


# -- shared AST helpers -----------------------------------------------------
def _self_field(node: ast.AST) -> str:
    """The first attribute above ``self`` in an access chain, or ``""``.

    ``self._jobs[k]`` -> ``_jobs``; ``self.stats.misses`` -> ``stats``;
    anything not rooted at a ``self`` name -> ``""``.
    """
    field = ""
    while True:
        if isinstance(node, ast.Subscript):
            node = node.value
        elif isinstance(node, ast.Attribute):
            field = node.attr
            node = node.value
        else:
            break
    return field if isinstance(node, ast.Name) and node.id == "self" else ""


def _identifiers(node: ast.AST) -> set[str]:
    """Every Name id and Attribute attr appearing under ``node``."""
    names: set[str] = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            names.add(child.id)
        elif isinstance(child, ast.Attribute):
            names.add(child.attr)
    return names


def _methods(cls: ast.ClassDef) -> dict[str, ast.FunctionDef]:
    return {item.name: item for item in cls.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))}


def _in_package(ctx: ModuleContext, *names: str) -> bool:
    """Whether the module lives under any directory named in ``names``."""
    from pathlib import PurePosixPath
    parts = PurePosixPath(ctx.relpath).parts
    return any(name in parts for name in names)


# ---------------------------------------------------------------------------
# rng-discipline
# ---------------------------------------------------------------------------

#: ``np.random.*`` members that construct deterministic generators (the
#: sampler helpers build on them); every other member is a draw from the
#: shared global stream and breaks the child-stream contract.
_RNG_CONSTRUCTORS = frozenset({
    "default_rng", "SeedSequence", "Generator", "BitGenerator",
    "PCG64", "PCG64DXSM", "Philox", "SFC64"})


@rule("rng-discipline", "error",
      "randomness must flow through the seeded child-stream helpers")
def _check_rng_discipline(ctx: ModuleContext) -> Iterator[Finding]:
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Import):
            for name in node.names:
                if name.name == "random" or name.name.startswith("random."):
                    yield ctx.finding(
                        "rng-discipline", "error",
                        "stdlib 'random' imported: its global state is "
                        "unseeded and unshardable, so results are not "
                        "reproducible",
                        node,
                        hint="draw from repro.mc.sampler.stream(seed, key) "
                             "/ child_streams instead")
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and node.module and (
                    node.module == "random"
                    or node.module.startswith("random.")):
                yield ctx.finding(
                    "rng-discipline", "error",
                    "stdlib 'random' imported: its global state is "
                    "unseeded and unshardable, so results are not "
                    "reproducible",
                    node,
                    hint="draw from repro.mc.sampler.stream(seed, key) "
                         "/ child_streams instead")
        elif isinstance(node, ast.Call):
            resolved = ctx.resolve(node.func)
            if not resolved.startswith("numpy.random."):
                continue
            member = resolved.split(".", 2)[2]
            if member not in _RNG_CONSTRUCTORS:
                yield ctx.finding(
                    "rng-discipline", "error",
                    f"naked np.random.{member}() draws from the shared "
                    f"module-level stream: results depend on call order "
                    f"across the whole process",
                    node,
                    hint="take an np.random.Generator argument and draw "
                         "from it; construct generators only via "
                         "repro.mc.sampler.stream / child_streams")
            elif member == "default_rng" and not node.args \
                    and not node.keywords:
                yield ctx.finding(
                    "rng-discipline", "error",
                    "default_rng() without a seed is entropy-seeded: "
                    "every run draws a different stream",
                    node,
                    hint="pass an explicit seed or SeedSequence "
                         "(repro.mc.sampler.stream derives one from "
                         "(seed, key))")


# ---------------------------------------------------------------------------
# fingerprint-determinism
# ---------------------------------------------------------------------------

#: Calls whose value differs between two otherwise-identical runs --
#: poison inside anything a cache fingerprint is derived from.
_NONDETERMINISTIC_CALLS = {
    "time.time": "the wall clock",
    "time.time_ns": "the wall clock",
    "datetime.datetime.now": "the wall clock",
    "datetime.datetime.utcnow": "the wall clock",
    "datetime.date.today": "the wall clock",
    "os.urandom": "the OS entropy pool",
    "uuid.uuid1": "the host MAC/clock",
    "uuid.uuid4": "the OS entropy pool",
    "secrets.token_bytes": "the OS entropy pool",
    "secrets.token_hex": "the OS entropy pool",
    "secrets.token_urlsafe": "the OS entropy pool",
}

#: Function/method names whose bodies participate in fingerprints
#: wherever they are defined (``Workload.config`` implementations, the
#: canonicalisation helpers themselves).
_FINGERPRINT_FUNCTIONS = frozenset({
    "config", "fingerprint", "canonicalize", "canonical_fingerprint"})


def _fingerprint_scopes(ctx: ModuleContext) -> list[ast.AST]:
    """The AST regions the determinism rule polices in this module.

    The ``cache`` and ``workload`` packages are fingerprint-
    participating end to end; elsewhere only the bodies of
    ``config()``/``fingerprint()``-style functions are.
    """
    if _in_package(ctx, "cache", "workload"):
        return [ctx.tree]
    return [node for node in ast.walk(ctx.tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name in _FINGERPRINT_FUNCTIONS]


@rule("fingerprint-determinism", "error",
      "fingerprinted paths must not read clocks, entropy or unsorted JSON")
def _check_fingerprint_determinism(ctx: ModuleContext) -> Iterator[Finding]:
    for scope in _fingerprint_scopes(ctx):
        for node in ast.walk(scope):
            if not isinstance(node, ast.Call):
                continue
            resolved = ctx.resolve(node.func)
            source = _NONDETERMINISTIC_CALLS.get(resolved)
            if source is not None:
                yield ctx.finding(
                    "fingerprint-determinism", "error",
                    f"{resolved}() reads {source} inside a fingerprint-"
                    f"participating path: two identical configs would "
                    f"fingerprint differently (or two different runs "
                    f"collide)",
                    node,
                    hint="fingerprints must be pure functions of the "
                         "config; derive identity from canonicalized "
                         "fields only")
            elif resolved == "json.dumps":
                sort_keys = next(
                    (kw for kw in node.keywords
                     if kw.arg == "sort_keys"), None)
                if sort_keys is None or (
                        isinstance(sort_keys.value, ast.Constant)
                        and sort_keys.value.value is not True):
                    yield ctx.finding(
                        "fingerprint-determinism", "error",
                        "json.dumps() without sort_keys=True in a "
                        "fingerprint-participating path: dict insertion "
                        "order leaks into the canonical text",
                        node,
                        hint="pass sort_keys=True (see "
                             "repro.cache.fingerprint)")


# ---------------------------------------------------------------------------
# fingerprint-completeness
# ---------------------------------------------------------------------------

#: Instance fields that are *execution* state, not result-shaping
#: configuration: the exec determinism contract keeps backend/workers
#: out of fingerprints, evaluator identity flows through
#: ``evaluator_id``, and ledgers/caches only observe.
_EXEC_ONLY_FIELDS = frozenset({"backend", "workers", "cacheable", "ledger",
                               "cache"})


def _is_workload_class(cls: ast.ClassDef) -> bool:
    for base in cls.bases:
        dotted = base.id if isinstance(base, ast.Name) else (
            base.attr if isinstance(base, ast.Attribute) else "")
        if dotted.endswith("Workload"):
            return True
    return False


@rule("fingerprint-completeness", "error",
      "every Workload field must be read by config() (or exempt)")
def _check_fingerprint_completeness(ctx: ModuleContext) -> Iterator[Finding]:
    for cls in ast.walk(ctx.tree):
        if not isinstance(cls, ast.ClassDef) or not _is_workload_class(cls):
            continue
        methods = _methods(cls)
        init = methods.get("__init__")
        config = methods.get("config")
        if init is None or config is None:
            continue
        config_names = _identifiers(config)
        fields: dict[str, ast.AST] = {}
        evaluator_feed: set[str] = set()
        for stmt in ast.walk(init):
            targets = []
            if isinstance(stmt, ast.Assign):
                targets = stmt.targets
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets = [stmt.target]
            else:
                continue
            for target in targets:
                if isinstance(target, ast.Attribute) \
                        and isinstance(target.value, ast.Name) \
                        and target.value.id == "self":
                    if target.attr == "evaluator_id":
                        evaluator_feed |= _identifiers(stmt.value)
                    fields.setdefault(target.attr, target)
        for name, target in fields.items():
            if name.startswith(("_", "evaluator")) \
                    or name in _EXEC_ONLY_FIELDS:
                continue
            if name in config_names or name in evaluator_feed:
                continue
            yield ctx.finding(
                "fingerprint-completeness", "error",
                f"{cls.name}.{name} is assigned in __init__ but never "
                f"read by config(): a field that shapes the result and "
                f"is missing from the fingerprint serves stale cache "
                f"entries",
                target, locus=f"{cls.name}.{name}",
                hint="emit the field from config(), fold it into the "
                     "evaluator_id digest, or suppress with a reason if "
                     "it provably cannot change the numbers")


# ---------------------------------------------------------------------------
# lock-discipline
# ---------------------------------------------------------------------------

#: Method names that mutate their receiver in place -- calling one on a
#: lock-protected field is a write.
_MUTATORS = frozenset({"append", "appendleft", "add", "update", "pop",
                       "popitem", "remove", "discard", "clear", "extend",
                       "insert", "setdefault"})

_LOCK_TYPES = frozenset({"threading.Lock", "threading.RLock"})


def _lock_fields(cls: ast.ClassDef, ctx: ModuleContext) -> set[str]:
    locks: set[str] = set()
    for node in ast.walk(cls):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            if ctx.resolve(node.value.func) in _LOCK_TYPES:
                for target in node.targets:
                    field = _self_field(target)
                    if field:
                        locks.add(field)
    return locks


def _chain_spine(node: ast.AST) -> set[int]:
    """Node ids along an access chain's spine (``self.a[k].b`` ->
    {Subscript, both Attributes}); subscript indices are not spine."""
    spine: set[int] = set()
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        spine.add(id(node))
        node = node.value
    return spine


def _scan_method(method: ast.AST, locks: set[str]):
    """Scan one method body for ``self.X`` traffic.

    Returns ``(accesses, calls)`` where each access is
    ``(field, node, is_write, under_lock)`` and each call is
    ``(method_name, under_lock)`` for ``self.method(...)`` invocations.
    Nested function bodies (closures, lambdas) run later, outside the
    lexical lock scope, so they are treated as not-under-lock.
    """
    accesses: list[tuple[str, ast.AST, bool, bool]] = []
    calls: list[tuple[str, bool]] = []
    consumed: set[int] = set()

    def held(node: ast.With) -> bool:
        return any(_self_field(item.context_expr) in locks
                   for item in node.items)

    def visit(node: ast.AST, under: bool) -> None:
        if isinstance(node, (ast.With, ast.AsyncWith)):
            under = under or held(node)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.Lambda)):
            under = False
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.Delete)):
            targets = node.targets if isinstance(
                node, (ast.Assign, ast.Delete)) else [node.target]
            for target in targets:
                field = _self_field(target)
                if field:
                    accesses.append((field, target, True, under))
                    consumed.update(_chain_spine(target))
        elif isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Attribute):
            if isinstance(node.func.value, ast.Name) \
                    and node.func.value.id == "self":
                calls.append((node.func.attr, under))
                consumed.add(id(node.func))
            elif node.func.attr in _MUTATORS:
                field = _self_field(node.func.value)
                if field:
                    accesses.append((field, node.func, True, under))
                    consumed.update(_chain_spine(node.func))

        if isinstance(node, ast.Attribute) and id(node) not in consumed:
            field = _self_field(node)
            if field:
                accesses.append((field, node, False, under))
                consumed.update(_chain_spine(node))
        for child in ast.iter_child_nodes(node):
            visit(child, under)

    visit(method, False)
    return accesses, calls


def _lock_held_helpers(methods: dict[str, ast.FunctionDef],
                       scans: dict[str, tuple]) -> set[str]:
    """Private helpers whose every in-class call site holds the lock.

    ``emit()`` taking the lock and delegating to ``self._rotate()`` is
    correct code; a purely lexical rule would flag the helper's body.
    Fixpoint: a ``_private`` (non-dunder) method is lock-held when it
    is called at least once and only ever from under the lock -- either
    lexically or from another lock-held method.  Calls from
    ``__init__`` count as safe (construction is single-threaded).
    """
    held: set[str] = set()
    candidates = {name for name in methods
                  if name.startswith("_") and not name.startswith("__")}
    while True:
        grew = False
        for name in candidates - held:
            sites = [(caller, under)
                     for caller, (_accesses, calls) in scans.items()
                     for callee, under in calls if callee == name]
            if sites and all(under or caller == "__init__"
                             or caller in held
                             for caller, under in sites):
                held.add(name)
                grew = True
        if not grew:
            return held


@rule("lock-discipline", "error",
      "fields mutated under a lock must never be touched outside it")
def _check_lock_discipline(ctx: ModuleContext) -> Iterator[Finding]:
    for cls in ast.walk(ctx.tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        locks = _lock_fields(cls, ctx)
        if not locks:
            continue
        methods = _methods(cls)
        scans = {name: _scan_method(method, locks)
                 for name, method in methods.items()}
        held_helpers = _lock_held_helpers(methods, scans)

        def effective(name: str, under: bool) -> bool:
            return under or name in held_helpers

        # Pass 1: a field written under the lock anywhere (outside
        # construction) is lock-protected.
        protected: set[str] = set()
        for name, (accesses, _calls) in scans.items():
            if name == "__init__":
                continue
            for field, _node, is_write, under in accesses:
                if is_write and effective(name, under) \
                        and field not in locks:
                    protected.add(field)
        if not protected:
            continue
        # Pass 2: any unlocked access to a protected field is a race.
        for name, (accesses, _calls) in scans.items():
            if name == "__init__":
                continue
            for field, node, is_write, under in accesses:
                if field in protected and not effective(name, under):
                    action = "written" if is_write else "read"
                    yield ctx.finding(
                        "lock-discipline", "error",
                        f"{cls.name}.{field} is {action} in {name}() "
                        f"without holding the lock, but is mutated "
                        f"under `with self.{sorted(locks)[0]}:` "
                        f"elsewhere -- a torn read/lost update race",
                        node, locus=f"{cls.name}.{name}.{field}",
                        hint="take the lock around the access (or don't "
                             "share the field across threads)")


# ---------------------------------------------------------------------------
# telemetry-hygiene
# ---------------------------------------------------------------------------

#: The documented span/metric taxonomy (docs/observability.md is the
#: narrative source; this table is the machine-checked mirror -- update
#: both together).
_SPAN_NAMES = frozenset({
    "flow.build", "flow.filter", "flow.stage", "job.run", "exec.run",
    "mc.single", "mc.points", "mc.stream", "mc.chunk", "yield.streaming",
    "yield.importance.pilot", "yield.importance.main", "rare.level",
    "rare.final", "surrogate.train", "surrogate.batch"})
_SPAN_PREFIXES = ("workload.",)
_COUNTER_NAMES = frozenset({
    "cache.hits", "cache.memory_hits", "cache.misses", "cache.stores",
    "cache.evictions",
    "exec.tasks", "mc.lanes", "mc.stream.rounds", "estimator.simulations",
    "surrogate.evaluations", "analysis.ac.direct_lanes"})
_COUNTER_PREFIXES = ("jobs.",)
_GAUGE_NAMES = frozenset({"cache.bytes", "cache.entries"})
_GAUGE_PREFIXES = ()

_TAXONOMY = {
    "span": (_SPAN_NAMES, _SPAN_PREFIXES),
    "counter_add": (_COUNTER_NAMES, _COUNTER_PREFIXES),
    "gauge_set": (_GAUGE_NAMES, _GAUGE_PREFIXES),
}


def _is_telemetry_base(ctx: ModuleContext, node: ast.AST) -> bool:
    """Whether an attribute base is the telemetry module (or a late-
    import shim like ``_telemetry()``)."""
    if isinstance(node, ast.Call):
        return ctx.dotted(node.func).endswith("telemetry")
    return ctx.resolve(node).split(".")[-1] == "telemetry"


def _name_conforms(name: str, allowed: frozenset, prefixes) -> bool:
    return name in allowed or any(name.startswith(p) for p in prefixes)


@rule("telemetry-hygiene", "error",
      "spans open via `with`; metric/span names follow the taxonomy")
def _check_telemetry_hygiene(ctx: ModuleContext) -> Iterator[Finding]:
    if _in_package(ctx, "telemetry"):
        return  # the subsystem itself implements the primitives
    with_contexts = {
        id(item.context_expr)
        for node in ast.walk(ctx.tree)
        if isinstance(node, (ast.With, ast.AsyncWith))
        for item in node.items}
    for node in ast.walk(ctx.tree):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _TAXONOMY
                and _is_telemetry_base(ctx, node.func.value)):
            continue
        kind = node.func.attr
        if kind == "span" and id(node) not in with_contexts:
            yield ctx.finding(
                "telemetry-hygiene", "error",
                "telemetry.span(...) opened outside a `with` block: the "
                "span is never closed and the trace tree dangles",
                node,
                hint="use `with telemetry.span(name, ...):` so close "
                     "fires on every exit path")
        if not node.args:
            continue
        first = node.args[0]
        allowed, prefixes = _TAXONOMY[kind]
        name = None
        if isinstance(first, ast.Constant) and isinstance(first.value, str):
            name = first.value
            ok = _name_conforms(name, allowed, prefixes)
        elif isinstance(first, ast.JoinedStr) and first.values \
                and isinstance(first.values[0], ast.Constant):
            name = str(first.values[0].value)
            # A dynamic name conforms when its static prefix can only
            # complete into taxonomy names.
            ok = (any(name.startswith(p) or p.startswith(name)
                      for p in prefixes)
                  or any(full.startswith(name) for full in allowed))
        else:
            continue  # fully dynamic: statically unknowable
        if not ok:
            yield ctx.finding(
                "telemetry-hygiene", "error",
                f"telemetry {kind.replace('_', ' ')} name {name!r} is "
                f"not in the documented taxonomy "
                f"(docs/observability.md)",
                node,
                hint="reuse an existing cache.*/jobs.*/exec.*/mc.*/"
                     "estimator.*/surrogate.* name, or extend the "
                     "taxonomy in docs/observability.md AND this rule")


# ---------------------------------------------------------------------------
# error-contract
# ---------------------------------------------------------------------------

def _is_trivial_body(body: list[ast.stmt]) -> bool:
    for stmt in body:
        if isinstance(stmt, (ast.Pass, ast.Continue)):
            continue
        if isinstance(stmt, ast.Expr) \
                and isinstance(stmt.value, ast.Constant):
            continue  # docstring or `...`
        return False
    return True


def _names_broad(ctx: ModuleContext, node: ast.AST | None) -> bool:
    if node is None:
        return False
    if isinstance(node, ast.Tuple):
        return any(_names_broad(ctx, element) for element in node.elts)
    return ctx.resolve(node) in ("Exception", "BaseException")


@rule("error-contract", "error",
      "no bare `except:` and no silently swallowed broad excepts")
def _check_error_contract(ctx: ModuleContext) -> Iterator[Finding]:
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if node.type is None:
            yield ctx.finding(
                "error-contract", "error",
                "bare `except:` also catches KeyboardInterrupt and "
                "SystemExit: a hung worker becomes unkillable",
                node,
                hint="catch the specific errors the block can raise "
                     "(or `except Exception` with real handling)")
        elif _names_broad(ctx, node.type) and _is_trivial_body(node.body):
            yield ctx.finding(
                "error-contract", "error",
                "`except Exception: pass` swallows every failure "
                "silently: broken invariants surface as wrong numbers "
                "far from the cause",
                node,
                hint="handle the error (log, count, re-raise wrapped) "
                     "or narrow the exception type")


# ---------------------------------------------------------------------------
# suppression-hygiene
# ---------------------------------------------------------------------------

@rule("suppression-hygiene", "error",
      "suppressions must name known rules and carry a reason")
def _check_suppression_hygiene(ctx: ModuleContext) -> Iterator[Finding]:
    for suppression in ctx.suppressions:
        unknown = [name for name in suppression.rules if name not in RULES]
        if unknown:
            yield ctx.finding(
                "suppression-hygiene", "error",
                f"suppression names unknown rule(s) "
                f"{', '.join(sorted(unknown))}",
                line=suppression.line,
                hint="run `python -m tools.reprolint --list-rules` for "
                     "the catalogue")
        if not suppression.reason:
            yield ctx.finding(
                "suppression-hygiene", "error",
                "suppression without a reason (the suppression is "
                "ignored until one is given)",
                line=suppression.line,
                hint="append ` -- <why this exemption is sound>` to the "
                     "comment")
