"""Guard against public code and options that nothing in the system uses.

Names.  Every module-level public function and class in ``src/repro``
must be referenced from ``src/``, ``examples/``, ``perfbench/``,
``benchmarks/`` or ``tools/``; a name only the tests use is dead weight.
A reference is an identifier or attribute in code.  Words inside strings
(docstring cross-references, error messages) do not count: prose names a
function without calling it.  Neither do imports and ``__all__``
entries: they re-export a name without calling it.  A name that is
deliberately kept without a caller goes in ``ALLOWED`` with its reason.

Options.  Every defaulted parameter of a public function, of a public
method of a public class and of a public class's constructor (its
``__init__`` or its dataclass fields, ``*Config`` fields included) must
be set by some call in those same folders -- by position, by keyword,
through ``**`` of a mapping whose literal keys the calling module names,
by ``dataclasses.replace`` or by an attribute store.  Calls are matched
by name, so a parameter counts as set when any callable of that name
gets it.  An option nobody sets is a branch only the tests run: delete
it (its default becomes the behaviour, a named constant when it is one)
or list it in ``ALLOWED_OPTIONS`` as ``owner.parameter`` (or
``owner.*`` for every keyword of one request constructor) with one of
three reasons: (a) an entry-point or deployment setting, (b) a
reference path the tests compare against, (c) a field that input from
outside the program sets (JSON requests, netlist cards).
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CALLERS = ("src", "examples", "perfbench", "benchmarks", "tools")

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
    "serve.poll": "(a) deployment: the daemon's spool poll interval",
    "serve.sample_every": "(a) deployment: the daemon's gauge sampling "
                          "interval",
    "request_stats.poll": "(a) deployment: a client's poll interval "
                          "waiting for the daemon's stats answer",
    "ResultCache.max_entries": "(a) deployment: the result cache's entry "
                               "budget",
    "monte_carlo_streaming.max_chunks": "(a) deployment: invocation "
                                        "sharding of a long streaming run "
                                        "(the CI kill/resume smoke sets it)",
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


def public_definitions() -> set[str]:
    names = set()
    for path in (ROOT / "src" / "repro").rglob("*.py"):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                names.add(node.name)
    return names


def _is_all(statement: ast.stmt) -> bool:
    """Is ``statement`` a module-level ``__all__`` (re)definition?"""
    targets = getattr(statement, "targets", None) or [
        getattr(statement, "target", None)]
    return any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets)


def referenced_names() -> set[str]:
    names = set()
    for folder in CALLERS:
        for path in (ROOT / folder).rglob("*.py"):
            tree = ast.parse(path.read_text(encoding="utf-8"))
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


def _fields(node: ast.ClassDef):
    """(field names in order, defaulted field names) of a dataclass body."""
    fields, defaulted = [], []
    for statement in node.body:
        if not (isinstance(statement, ast.AnnAssign)
                and isinstance(statement.target, ast.Name)):
            continue
        if "ClassVar" in ast.unparse(statement.annotation):
            continue
        value = statement.value
        if (isinstance(value, ast.Call)
                and getattr(value.func, "id", "") == "field"
                and any(k.arg == "init" for k in value.keywords)):
            continue
        fields.append(statement.target.id)
        if value is not None and not statement.target.id.startswith("_"):
            defaulted.append(statement.target.id)
    return fields, defaulted


def option_definitions() -> dict[str, list[tuple[str, list, list, bool]]]:
    """Callable name -> [(owner, positional params, defaulted params,
    whether they are dataclass fields)].

    Covers public module functions (owner ``function``), public methods
    of public classes (``Class.method``) and the constructors of public
    classes (``Class``: ``__init__`` or dataclass fields, inherited
    fields first).
    """
    classes, definitions = {}, {}

    def add(name, owner, positional, defaulted, fields=False):
        definitions.setdefault(name, []).append(
            (owner, positional, defaulted, fields))

    for path in (ROOT / "src" / "repro").rglob("*.py"):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if getattr(node, "name", "_").startswith("_"):
                continue
            if isinstance(node, ast.FunctionDef):
                add(node.name, node.name, *_signature(node.args, False))
            elif isinstance(node, ast.ClassDef):
                classes[node.name] = node
    for name, node in classes.items():
        init = None
        for item in node.body:
            if not isinstance(item, ast.FunctionDef):
                continue
            if item.name == "__init__":
                init = item
            elif not item.name.startswith("_"):
                static = "staticmethod" in _decorator_names(item)
                add(item.name, f"{name}.{item.name}",
                    *_signature(item.args, not static))
        if init is not None:
            add(name, name, *_signature(init.args, True))
        elif {"dataclass", "NamedTuple"} & (
                _decorator_names(node)
                | {getattr(b, "id", "") for b in node.bases}):
            positional, defaulted = [], []
            for base in node.bases:
                if getattr(base, "id", "") in classes:
                    inherited = _fields(classes[base.id])
                    positional += inherited[0]
                    defaulted += inherited[1]
            own = _fields(node)
            add(name, name, positional + own[0], defaulted + own[1],
                fields=True)
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


def set_options(definitions) -> set[str]:
    """``owner.param`` of every option some non-test call sets.

    A call sets a parameter by position, by keyword, or through ``**``
    of a mapping whose literal keys the same module names;
    ``functools.partial`` counts as a call of the function it binds.
    ``dataclasses.replace`` and an attribute store (not on ``self``)
    set a field of every dataclass that has one of that name.
    """
    done = set()
    fields: dict[str, set[str]] = {}   # field name -> "Class.field"
    for entries in definitions.values():
        for owner, _, defaulted, is_fields in entries:
            for name in defaulted if is_fields else ():
                fields.setdefault(name, set()).add(f"{owner}.{name}")

    def mark(name, n_positional, keywords):
        for owner, positional, defaulted, _ in definitions.get(name, ()):
            chosen = set(positional[:n_positional]) | keywords
            done.update(f"{owner}.{p}" for p in defaulted if p in chosen)

    def mark_fields(keywords):
        for keyword in keywords:
            done.update(fields.get(keyword, ()))

    for folder in CALLERS:
        for path in (ROOT / folder).rglob("*.py"):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            mappings = _mapping_keys(tree)
            # ``cls(...)`` inside a class body constructs that class.
            own_class = {id(call): cls.name
                         for cls in ast.walk(tree)
                         if isinstance(cls, ast.ClassDef)
                         for call in ast.walk(cls)
                         if isinstance(call, ast.Call)
                         and getattr(call.func, "id", "") == "cls"}
            for node in ast.walk(tree):
                if isinstance(node, (ast.Assign, ast.AugAssign)):
                    targets = getattr(node, "targets", None) or [node.target]
                    mark_fields({t.attr for t in targets
                                 if isinstance(t, ast.Attribute)
                                 and getattr(t.value, "id", "") != "self"})
                if not isinstance(node, ast.Call):
                    continue
                callee = own_class.get(id(node)) or getattr(
                    node.func, "attr", getattr(node.func, "id", None))
                args = list(node.args)
                if callee == "partial" and args:
                    first = args.pop(0)
                    callee = getattr(first, "attr", getattr(first, "id", None))
                keywords, n_positional = set(), len(args)
                if any(isinstance(a, ast.Starred) for a in args):
                    n_positional = 10 ** 6
                for keyword in node.keywords:
                    if keyword.arg is not None:
                        keywords.add(keyword.arg)
                    elif isinstance(keyword.value, (ast.Name, ast.Call)):
                        source = getattr(keyword.value, "func", keyword.value)
                        keywords |= mappings.get(getattr(source, "id", ""),
                                                 set())
                    else:
                        keywords |= _literal_keys(keyword.value) or set()
                if callee == "replace":
                    mark_fields(keywords)
                else:
                    mark(callee, n_positional, keywords)
    return done


def unset_options() -> set[str]:
    definitions = option_definitions()
    every = {f"{owner}.{p}" for entries in definitions.values()
             for owner, _, defaulted, _ in entries for p in defaulted}
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
