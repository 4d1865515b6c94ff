"""Guard against public code, options and outputs that nothing uses.

Callers.  Every ``.py`` file in ``src/``, ``examples/``, ``perfbench/``,
``benchmarks/`` and ``tools/`` is a caller, and so is every inline
``python - <<'EOF'`` block of the CI workflow.  The tests are not: a
name, option or output only the tests use is dead weight.

Names.  Every module-level public function and class in ``src/repro``
must be referenced by some caller.  A reference is an identifier or
attribute in code.  Words inside strings (docstring cross-references,
error messages) do not count: prose names a function without calling
it.  Neither do imports and ``__all__`` entries: they re-export a name
without calling it.  A name that is deliberately kept without a caller
goes in ``ALLOWED`` with its reason.

Options.  Every defaulted parameter of a public function, of a public
method of a public class and of a public class's constructor (its
``__init__`` or its dataclass fields, ``*Config`` fields included) must
be set by some call -- by position, by keyword, through ``**`` of a
mapping whose literal keys the calling module names, by
``dataclasses.replace`` or by an attribute store.  An option nobody sets
is a branch only the tests run: delete it (its default becomes the
behaviour, a named constant when it is one) or list it in
``ALLOWED_OPTIONS`` as ``owner.parameter`` (or ``owner.*`` for every
keyword of one request constructor) with one of three reasons: (a) an
entry-point or deployment setting, (b) a reference path the tests
compare against, (c) a field that input from outside the program sets
(JSON requests, netlist cards).

Outputs.  Every field of a public dataclass or NamedTuple and every
public property of a public class must be read by some caller: an
attribute load of its name, or ``getattr(obj, "<name>")``.  An output
nobody reads is work only the tests look at: delete it with the code
that computes it, or list it in ``ALLOWED_OUTPUTS`` as ``Class.name``
with its reason.

Resolution.  Calls and reads are matched to definitions by name, after
resolving what the call or read is made on (:class:`Scope`):

* a name bound by importing a non-``repro`` package is foreign: a call
  ``np.full(...)`` or ``full(...)`` sets no option and a load
  ``np.median`` or ``math.inf`` reads no output.  ``dataclasses.replace``
  and ``functools.partial`` keep their meaning;
* a bare call ``f(...)`` resolves to module-level functions and classes;
* ``obj.m(...)`` resolves to methods, unless ``obj`` is a ``repro``
  module (``telemetry.span(...)``, relative imports included), when it
  resolves to module-level functions and classes;
* an attribute load on a module, ``repro`` or foreign, reads no output.
"""

import ast
import functools
import re
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CALLERS = ("src", "examples", "perfbench", "benchmarks", "tools")
CI_WORKFLOW = ROOT / ".github" / "workflows" / "ci.yml"

ALLOWED = {
    "TableModel": "the $table_model reader the tests check emitted .tbl "
                  "artefacts with",
    "summarize": "batch oracle the streaming population summary is "
                 "tested against",
    "db20": "the forward conversion the from_db20 round trip is tested "
            "against",
    "format_si": "the inverse of parse_si the SI dialect round trip is "
                 "tested through",
    "load_surrogates": "reader of the surrogate_model.npz artefact the "
                       "flow writes",
}

_REQUEST_FIELDS = ("(c) service request fields: workload_from_request "
                   "passes a JSON request's fields through **options")

ALLOWED_OPTIONS = {
    "main.argv": "(a) entry point: the console script's argument vector",
    "request_stats.poll": "(a) deployment: a client's poll interval "
                          "waiting for the daemon's stats answer",
    "ResultCache.max_entries": "(a) deployment: the result cache's entry "
                               "budget",
    "LadderConfig.chunk_lanes": "(a) deployment: lane bound (memory) of the "
                                "ladder's stacked passes; its estimates "
                                "must not move with it",
    "lint_netlist.only": "(a) entry point: rule selection of the lint "
                         "package's netlist entry point",
    "LadderConfig.include_mismatch": "(b) reference: the mismatch-free "
                                     "ladder the stacked rungs and the "
                                     "mismatch-carrying ladder are checked "
                                     "against",
    "format_si.*": "(b) reference: the inverse the parse_si round trip is "
                   "tested through",
    "TableModel.from_data.*": "(b) reference: the $table_model reader the "
                              "tests check emitted .tbl artefacts with",
    "TableModel.from_file.*": "(b) reference: the $table_model reader the "
                              "tests check emitted .tbl artefacts with",
    "MOSModel.*": "(c) netlist input: the parser sets any field from a "
                  ".model card",
    "ota_estimate_workload.*": _REQUEST_FIELDS,
    "ota_rare_workload.*": _REQUEST_FIELDS,
    "ota_corner_workload.*": _REQUEST_FIELDS,
    "ota_surrogate_workload.*": _REQUEST_FIELDS,
}

#: ``Class.name`` -> why an output no caller reads is kept.
ALLOWED_OUTPUTS: dict[str, str] = {}


# -- callers and name resolution --------------------------------------------


TOP_LEVEL = frozenset({"function", "class"})
METHOD = frozenset({"method"})
#: Foreign callables that keep their meaning for the option guard.
SPECIAL = {"dataclasses.replace": "replace", "functools.partial": "partial"}


@functools.lru_cache(maxsize=None)
def _repro_modules() -> frozenset[str]:
    """Dotted names of every module and package under ``src/repro``."""
    modules = set()
    for path in (ROOT / "src" / "repro").rglob("*.py"):
        parts = path.relative_to(ROOT / "src").with_suffix("").parts
        modules.add(".".join(parts[:-1] if parts[-1] == "__init__"
                             else parts))
    return frozenset(modules)


class Scope:
    """What the import statements of one caller module bind.

    ``repro`` maps a name bound to a ``repro`` module to the module's
    dotted name; ``foreign`` maps a name bound by importing from any
    other package (a module, function or class alike) to what it
    imports.  A ``repro`` function or class imported by name binds
    nothing here: calls reach it by name.
    """

    def __init__(self, tree: ast.Module, package: str | None) -> None:
        self.repro: dict[str, str] = {}
        self.foreign: dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".")[0]
                    self._bind(alias.asname or root,
                               alias.name if alias.asname else root)
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level:
                    # Relative to the caller's package; outside src/
                    # (package None) it is a package of its own.
                    anchor = (package or "").split(".")
                    anchor = anchor[:len(anchor) - node.level + 1]
                    base = ".".join(anchor + ([base] if base else []))
                for alias in node.names:
                    self._bind(alias.asname or alias.name,
                               f"{base}.{alias.name}")

    def _bind(self, name: str, target: str) -> None:
        if target.split(".")[0] != "repro":
            self.foreign[name] = target
        elif target in _repro_modules():
            self.repro[name] = target

    def _chain(self, node) -> tuple[str | None, list[str]]:
        """(root name, attributes after it) of an attribute chain."""
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        return getattr(node, "id", None), parts[::-1]

    def is_foreign(self, node) -> bool:
        """Is ``node`` a foreign import or reached through one?"""
        return self._chain(node)[0] in self.foreign

    def is_repro_module(self, node) -> bool:
        """Is ``node`` a ``repro`` module (``telemetry``, ``repro.mc``)?"""
        root, parts = self._chain(node)
        return root in self.repro and \
            ".".join([self.repro[root]] + parts) in _repro_modules()

    def is_module(self, node) -> bool:
        return self.is_foreign(node) or self.is_repro_module(node)

    def special(self, func) -> str | None:
        """``"replace"``/``"partial"`` when ``func`` is
        ``dataclasses.replace``/``functools.partial``."""
        root, parts = self._chain(func)
        if root not in self.foreign:
            return None
        return SPECIAL.get(".".join([self.foreign[root]] + parts))

    def resolve(self, func) -> tuple[str, frozenset] | None:
        """(name, definition kinds) a call of ``func`` may reach, or
        None when it reaches nothing in ``repro``."""
        if self.is_foreign(func):
            return None
        if isinstance(func, ast.Name):
            return func.id, TOP_LEVEL
        if isinstance(func, ast.Attribute):
            if self.is_repro_module(func.value):
                return func.attr, TOP_LEVEL
            return func.attr, METHOD
        return None


def _ci_sources() -> list[str]:
    """The body of every ``python[3] - ... <<'EOF'`` block in CI."""
    sources, lines = [], CI_WORKFLOW.read_text(encoding="utf-8").splitlines()
    opener = re.compile(r"\bpython3? - .*<<\s*'EOF'\s*$")
    for index, line in enumerate(lines):
        if opener.search(line):
            body = []
            for inner in lines[index + 1:]:
                if inner.strip() == "EOF":
                    break
                body.append(inner)
            sources.append(textwrap.dedent("\n".join(body)))
    return sources


@functools.lru_cache(maxsize=None)
def caller_modules() -> tuple[tuple[Scope, ast.Module], ...]:
    """(scope, tree) of every caller module, CI's inline blocks last."""
    modules = []
    for folder in CALLERS:
        for path in sorted((ROOT / folder).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            package = (".".join(path.relative_to(ROOT / "src").parts[:-1])
                       if folder == "src" else None)
            modules.append((Scope(tree, package), tree))
    for source in _ci_sources():
        tree = ast.parse(source)
        modules.append((Scope(tree, None), tree))
    return tuple(modules)


# -- names -------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _public_top_level() -> tuple[ast.FunctionDef | ast.ClassDef, ...]:
    """Every public module-level function and class in ``src/repro``."""
    return tuple(
        node for path in (ROOT / "src" / "repro").rglob("*.py")
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_"))


def public_definitions() -> set[str]:
    return {node.name for node in _public_top_level()}


def _is_all(statement: ast.stmt) -> bool:
    """Is ``statement`` a module-level ``__all__`` (re)definition?"""
    targets = getattr(statement, "targets", None) or [
        getattr(statement, "target", None)]
    return any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets)


def referenced_names() -> set[str]:
    names = set()
    for _, tree in caller_modules():
        for statement in tree.body:
            if _is_all(statement):
                continue
            for node in ast.walk(statement):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
    return names


def test_every_public_name_has_a_caller():
    uncalled = public_definitions() - referenced_names()
    assert sorted(uncalled) == sorted(ALLOWED)


# -- options: defaulted parameters and dataclass fields ---------------------


def _decorator_names(node) -> set[str]:
    names = set()
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        names.add(getattr(target, "attr", getattr(target, "id", "")))
    return names


def _signature(args: ast.arguments, drop_first: bool):
    """(positional parameter names, defaulted parameter names)."""
    positional = [a.arg for a in args.posonlyargs + args.args]
    if drop_first:
        positional = positional[1:]
    defaulted = positional[len(positional) - len(args.defaults):] \
        if args.defaults else []
    defaulted += [a.arg for a, default in zip(args.kwonlyargs,
                                               args.kw_defaults)
                  if default is not None]
    return positional, [p for p in defaulted if not p.startswith("_")]


def _is_record(node: ast.ClassDef) -> bool:
    """Is ``node`` a dataclass or a NamedTuple?"""
    return bool({"dataclass", "NamedTuple"} & (
        _decorator_names(node) | {getattr(b, "id", "") for b in node.bases}))


def _fields(node: ast.ClassDef, init_only: bool = True):
    """(field names in order, defaulted field names) of a dataclass body;
    ``init_only=False`` keeps the ``field(init=False)`` state too."""
    fields, defaulted = [], []
    for statement in node.body:
        if not (isinstance(statement, ast.AnnAssign)
                and isinstance(statement.target, ast.Name)):
            continue
        if "ClassVar" in ast.unparse(statement.annotation):
            continue
        value = statement.value
        if (init_only and isinstance(value, ast.Call)
                and getattr(value.func, "id", "") == "field"
                and any(k.arg == "init" for k in value.keywords)):
            continue
        fields.append(statement.target.id)
        if value is not None and not statement.target.id.startswith("_"):
            defaulted.append(statement.target.id)
    return fields, defaulted


def _public_classes() -> dict[str, ast.ClassDef]:
    return {node.name: node for node in _public_top_level()
            if isinstance(node, ast.ClassDef)}


def option_definitions() -> dict[str, list[tuple[str, str, list, list, bool]]]:
    """Callable name -> [(kind, owner, positional params, defaulted
    params, whether they are dataclass fields)].

    Covers public module functions (kind ``function``, owner
    ``function``), public methods of public classes (``method``,
    ``Class.method``) and the constructors of public classes
    (``class``, ``Class``: ``__init__`` or dataclass fields, inherited
    fields first).
    """
    classes, definitions = _public_classes(), {}

    def add(kind, name, owner, positional, defaulted, fields=False):
        definitions.setdefault(name, []).append(
            (kind, owner, positional, defaulted, fields))

    for node in _public_top_level():
        if isinstance(node, ast.FunctionDef):
            add("function", node.name, node.name,
                *_signature(node.args, False))
    for name, node in classes.items():
        init = None
        for item in node.body:
            if not isinstance(item, ast.FunctionDef):
                continue
            if item.name == "__init__":
                init = item
            elif not item.name.startswith("_"):
                static = "staticmethod" in _decorator_names(item)
                add("method", item.name, f"{name}.{item.name}",
                    *_signature(item.args, not static))
        if init is not None:
            add("class", name, name, *_signature(init.args, True))
        elif _is_record(node):
            positional, defaulted = [], []
            for base in node.bases:
                if getattr(base, "id", "") in classes:
                    inherited = _fields(classes[base.id])
                    positional += inherited[0]
                    defaulted += inherited[1]
            own = _fields(node)
            add("class", name, name, positional + own[0],
                defaulted + own[1], fields=True)
    return definitions


def _literal_keys(node) -> set[str] | None:
    """Keys of a literal ``{...}`` / ``dict(...)`` mapping (either arm of
    a conditional expression), else None."""
    if isinstance(node, ast.IfExp):
        arms = [_literal_keys(node.body), _literal_keys(node.orelse)]
        return set().union(*(arm for arm in arms if arm)) or None
    if isinstance(node, ast.Dict) and all(
            isinstance(k, ast.Constant) for k in node.keys):
        return {k.value for k in node.keys}
    if (isinstance(node, ast.Call) and getattr(node.func, "id", "") == "dict"
            and not node.args):
        return {k.arg for k in node.keywords if k.arg is not None}
    return None


def _mapping_keys(tree: ast.AST) -> dict[str, set[str]]:
    """Name -> every literal key a module puts in a mapping of that name
    (``name = {...}``, ``name = dict(...)``, ``name["key"] = ...``) or
    returns from a function of that name (``return {...}``)."""
    keys: dict[str, set[str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            for inner in ast.walk(node):
                literal = (_literal_keys(inner.value)
                           if isinstance(inner, ast.Return) and inner.value
                           else None)
                if literal:
                    keys.setdefault(node.name, set()).update(literal)
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            if isinstance(target, ast.Name):
                literal = _literal_keys(node.value)
                if literal:
                    keys.setdefault(target.id, set()).update(literal)
            elif (isinstance(target, ast.Subscript)
                  and isinstance(target.value, ast.Name)
                  and isinstance(target.slice, ast.Constant)):
                keys.setdefault(target.value.id, set()).add(
                    target.slice.value)
    return keys


def _call_keywords(node: ast.Call, mappings) -> set[str]:
    """Keywords a call passes, ``**`` of a literal-keyed mapping included."""
    keywords = set()
    for keyword in node.keywords:
        if keyword.arg is not None:
            keywords.add(keyword.arg)
        elif isinstance(keyword.value, (ast.Name, ast.Call)):
            source = getattr(keyword.value, "func", keyword.value)
            keywords |= mappings.get(getattr(source, "id", ""), set())
        else:
            keywords |= _literal_keys(keyword.value) or set()
    return keywords


def module_set_options(tree: ast.Module, scope: Scope,
                       definitions) -> set[str]:
    """``owner.param`` of every option the calls in ``tree`` set.

    A call sets a parameter by position, by keyword, or through ``**``
    of a mapping whose literal keys the same module names;
    ``functools.partial`` counts as a call of the function it binds.
    ``dataclasses.replace`` and an attribute store (not on ``self`` or a
    module) set a field of every dataclass that has one of that name.
    """
    done = set()
    fields: dict[str, set[str]] = {}   # field name -> "Class.field"
    for entries in definitions.values():
        for _, owner, _, defaulted, is_fields in entries:
            for name in defaulted if is_fields else ():
                fields.setdefault(name, set()).add(f"{owner}.{name}")

    def mark(target, n_positional, keywords):
        name, kinds = target
        for kind, owner, positional, defaulted, _ in definitions.get(name, ()):
            if kind in kinds:
                chosen = set(positional[:n_positional]) | keywords
                done.update(f"{owner}.{p}" for p in defaulted if p in chosen)

    def mark_fields(keywords):
        for keyword in keywords:
            done.update(fields.get(keyword, ()))

    mappings = _mapping_keys(tree)
    # ``cls(...)`` inside a class body constructs that class.
    own_class = {id(call): cls.name
                 for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                 for call in ast.walk(cls)
                 if isinstance(call, ast.Call)
                 and getattr(call.func, "id", "") == "cls"}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = getattr(node, "targets", None) or [node.target]
            mark_fields({t.attr for t in targets
                         if isinstance(t, ast.Attribute)
                         and getattr(t.value, "id", "") != "self"
                         and not scope.is_module(t.value)})
        if not isinstance(node, ast.Call):
            continue
        args, func = list(node.args), node.func
        special = scope.special(func)
        if special == "replace":
            mark_fields(_call_keywords(node, mappings))
            continue
        if special == "partial" and args:
            func = args.pop(0)
        target = ((own_class[id(node)], TOP_LEVEL) if id(node) in own_class
                  else scope.resolve(func))
        if target is None:
            continue
        n_positional = len(args)
        if any(isinstance(a, ast.Starred) for a in args):
            n_positional = 10 ** 6
        mark(target, n_positional, _call_keywords(node, mappings))
    return done


def set_options(definitions) -> set[str]:
    """``owner.param`` of every option some caller sets."""
    done = set()
    for scope, tree in caller_modules():
        done |= module_set_options(tree, scope, definitions)
    return done


def unset_options() -> set[str]:
    definitions = option_definitions()
    every = {f"{owner}.{p}" for entries in definitions.values()
             for _, owner, _, defaulted, _ in entries for p in defaulted}
    return every - set_options(definitions)


def _allowance(option: str) -> str | None:
    """The ``ALLOWED_OPTIONS`` key covering ``owner.parameter``."""
    owner = option.rsplit(".", 1)[0]
    for key in (option, f"{owner}.*"):
        if key in ALLOWED_OPTIONS:
            return key
    return None


def test_every_option_has_a_setter():
    unset = unset_options()
    assert sorted(o for o in unset if _allowance(o) is None) == []
    used = {_allowance(o) for o in unset}
    assert sorted(set(ALLOWED_OPTIONS) - used) == [], "stale ALLOWED_OPTIONS"


def test_every_kept_option_gives_a_reason():
    for option, reason in ALLOWED_OPTIONS.items():
        assert reason[:4] in ("(a) ", "(b) ", "(c) "), option


# -- outputs: record fields and properties ----------------------------------


def output_definitions() -> set[str]:
    """``Class.name`` of every field of a public dataclass or NamedTuple
    and every public property of a public class."""
    outputs = set()
    for name, node in _public_classes().items():
        if _is_record(node):
            outputs.update(f"{name}.{f}"
                           for f in _fields(node, init_only=False)[0]
                           if not f.startswith("_"))
        for item in node.body:
            if (isinstance(item, ast.FunctionDef)
                    and not item.name.startswith("_")
                    and {"property", "cached_property"}
                    & _decorator_names(item)):
                outputs.add(f"{name}.{item.name}")
    return outputs


def module_read_names(tree: ast.Module, scope: Scope) -> set[str]:
    """Attribute names ``tree`` reads off objects (not off modules)."""
    names = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Load)
                and not scope.is_module(node.value)):
            names.add(node.attr)
        elif (isinstance(node, ast.Call)
              and getattr(node.func, "id", "") == "getattr"
              and len(node.args) >= 2
              and isinstance(node.args[1], ast.Constant)):
            names.add(node.args[1].value)
    return names


def unread_outputs() -> set[str]:
    read = set()
    for scope, tree in caller_modules():
        read |= module_read_names(tree, scope)
    return {output for output in output_definitions()
            if output.rsplit(".", 1)[1] not in read}


def test_every_output_is_read():
    unread = unread_outputs()
    assert sorted(unread - set(ALLOWED_OUTPUTS)) == []
    assert sorted(set(ALLOWED_OUTPUTS) - unread) == [], \
        "stale ALLOWED_OUTPUTS"


# -- the resolver itself ----------------------------------------------------


def _snippet(source: str, package: str | None = None):
    tree = ast.parse(textwrap.dedent(source))
    return tree, Scope(tree, package)


_DEFINITIONS = {
    "full": [("method", "CornerGrid.full", ["pdk", "vdds"], ["vdds"], False)],
    "hypervolume": [
        ("function", "hypervolume", ["points", "reference"], [], False),
        ("method", "Result.hypervolume", ["reference"], ["reference"],
         False)],
    "span": [("function", "span", ["name"], ["name"], False)],
}


class TestResolver:
    def test_foreign_call_sets_no_option(self):
        for source in ("import numpy as np\nnp.full(shape, fill)",
                       "from numpy import full\nfull(shape, fill)"):
            tree, scope = _snippet(source)
            assert module_set_options(tree, scope, _DEFINITIONS) == set()
        tree, scope = _snippet("grid.full(pdk, vdds)")
        assert module_set_options(tree, scope, _DEFINITIONS) == {
            "CornerGrid.full.vdds"}

    def test_bare_call_reaches_functions_not_methods(self):
        tree, scope = _snippet("hypervolume(points, reference)")
        assert module_set_options(tree, scope, _DEFINITIONS) == set()
        tree, scope = _snippet("result.hypervolume(reference)")
        assert module_set_options(tree, scope, _DEFINITIONS) == {
            "Result.hypervolume.reference"}

    def test_repro_module_alias_reaches_functions(self):
        tree, scope = _snippet("""
            from .. import telemetry
            telemetry.span("x")
        """, package="repro.mc")
        assert module_set_options(tree, scope, _DEFINITIONS) == {"span.name"}
        tree, scope = _snippet("""
            import repro.telemetry as t
            t.span("x")
        """)
        assert module_set_options(tree, scope, _DEFINITIONS) == {"span.name"}

    def test_replace_and_partial_keep_their_meaning(self):
        definitions = dict(_DEFINITIONS, Config=[
            ("class", "Config", ["seed"], ["seed"], True)])
        tree, scope = _snippet("""
            import dataclasses
            from functools import partial
            dataclasses.replace(config, seed=1)
            partial(hypervolume, points)
        """)
        assert module_set_options(tree, scope, definitions) == {
            "Config.seed"}
        tree, scope = _snippet("""
            import functools
            functools.partial(result.hypervolume, reference)
        """)
        assert module_set_options(tree, scope, definitions) == {
            "Result.hypervolume.reference"}

    def test_foreign_attribute_reads_no_output(self):
        tree, scope = _snippet("""
            import math
            import numpy as np
            np.median(x) + math.inf
        """)
        assert module_read_names(tree, scope) == set()
        tree, scope = _snippet("""
            summary.median + getattr(result, "q01")
        """)
        assert module_read_names(tree, scope) == {"median", "q01"}

    def test_ci_blocks_are_callers(self):
        sources = _ci_sources()
        assert sources, "no inline python block found in CI"
        assert any("resumed.complete" in source for source in sources)
        for source in sources:
            ast.parse(source)
