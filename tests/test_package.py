"""The package's public surface."""

import ast
import inspect
import warnings
from pathlib import Path

import intham
from intham import errors, fields
from test_fields import SITE_READERS


def test_every_exported_name_resolves():
    missing = [name for name in intham.__all__ if not hasattr(intham, name)]
    assert missing == []


def test_every_module_compiles_without_a_warning():
    # An ``is`` comparison against a literal or an invalid escape in a string
    # warns only when a fresh ``.pyc`` is written; here any warning fails.
    for path in sorted(Path(intham.__file__).parent.glob("*.py")):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            compile(path.read_text(), str(path), "exec")


def test_no_module_imports_a_name_it_never_uses():
    # ``__init__`` imports to re-export; every other module imports to use.
    unused = []
    for path in sorted(Path(intham.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]
    assert unused == []


def test_json_decoders_read_integers_through_one_rule():
    # ``int()`` truncates 3.9 and reads "44" as 44; ``operator.index`` and
    # ``isinstance(v, int)`` admit true and false.  Every ``*_from_json``
    # decoder leaves integers to ``hamiltonians.integers`` and ``read_key``.
    found = []
    for path in sorted(Path(intham.__file__).parent.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(), str(path))):
            if not (isinstance(fn, ast.FunctionDef) and fn.name.endswith("_from_json")):
                continue
            for call in (n for n in ast.walk(fn) if isinstance(n, ast.Call)):
                name = ast.unparse(call.func)
                admits_int = name == "isinstance" and len(call.args) == 2 and any(
                    isinstance(n, ast.Name) and n.id == "int" for n in ast.walk(call.args[1])
                )
                if name in ("int", "operator.index") or admits_int:
                    found.append(f"{path.name}:{call.lineno} {fn.name} calls {ast.unparse(call)}")
    assert found == []


def test_power_families_are_decoded_in_one_place():
    # Models and the census read ``exponent``/``scale``/``mass`` through
    # ``hamiltonians.power_family_from_json``; a second decoder in another
    # module once skipped the exponent cap that the first one enforced.
    found = []
    for path in sorted(Path(intham.__file__).parent.glob("*.py")):
        if path.name == "hamiltonians.py":
            continue
        for call in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(call, ast.Call) and ast.unparse(call.func).split(".")[-1] == "PowerLawFamily":
                found.append(f"{path.name}:{call.lineno} {ast.unparse(call)}")
    assert found == []


def test_every_private_keyword_is_passed_inside_the_package():
    # A ``_``-prefixed keyword-only parameter is an option for the package's
    # own callers; one that no call in the package passes to its function is
    # dead code.  Calls are matched by the called name's last part, a call
    # through a local alias such as ``mover = prev_site if inverse else
    # next_site`` passes to every function the alias may hold, and a function
    # passing its own option to itself is not a caller.
    def names(expr):
        if isinstance(expr, ast.IfExp):
            return names(expr.body) | names(expr.orelse)
        return {ast.unparse(expr).split(".")[-1]}

    declared, passed = {}, set()
    for path in sorted(Path(intham.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        aliases = {
            node.targets[0].id: names(node.value)
            for node in ast.walk(tree)
            if isinstance(node, ast.Assign) and len(node.targets) == 1 and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, (ast.Name, ast.Attribute, ast.IfExp))
        }
        for fn in (n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))):
            for arg in fn.args.kwonlyargs:
                if arg.arg.startswith("_"):
                    declared[f"{path.name}:{fn.name}({arg.arg})"] = (fn.name, arg.arg)
            for call in (n for n in ast.walk(fn) if isinstance(n, ast.Call)):
                for name in set().union(*(aliases.get(n, {n}) for n in names(call.func))) - {fn.name}:
                    passed.update((name, kw.arg) for kw in call.keywords if kw.arg)
    assert declared and sorted(name for name, key in declared.items() if key not in passed) == []


def test_every_function_cache_is_bounded():
    # ``peak_rss_mb`` is measured per process, so a per-process cache that
    # grows with the work done charges every run in memory.  Each
    # ``functools.lru_cache`` takes a finite integer ``maxsize``, given as a
    # literal or a module constant; ``functools.cache`` and a bare
    # ``@lru_cache`` (an implicit 128) are not allowed.
    found, unbounded = 0, []
    for path in sorted(Path(intham.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        constants = {
            target.id: node.value.value
            for node in tree.body
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant)
            for target in node.targets
            if isinstance(target, ast.Name)
        }
        # a bare decorator, or a call: ``@lru_cache(...)``, ``lru_cache(...)(f)``
        bare = [d for n in ast.walk(tree) for d in getattr(n, "decorator_list", ()) if not isinstance(d, ast.Call)]
        for node in bare + [n for n in ast.walk(tree) if isinstance(n, ast.Call)]:
            call = node if isinstance(node, ast.Call) else None
            name = ast.unparse(call.func if call else node).split(".")[-1]
            if name not in ("lru_cache", "cache"):
                continue
            found += 1
            size = None
            if call is not None and name == "lru_cache":
                size = (call.args[:1] + [kw.value for kw in call.keywords if kw.arg == "maxsize"] or [None])[0]
                if isinstance(size, ast.Name):
                    size = constants.get(size.id)
                elif isinstance(size, ast.Constant):
                    size = size.value
            if type(size) is not int or size < 1:
                unbounded.append(f"{path.name}:{node.lineno} {ast.unparse(node)}")
    assert found >= 2 and unbounded == []


def test_every_error_is_built_with_its_declared_context():
    # ``IntHamError.__init__`` rejects an undeclared keyword at run time, so a
    # typo on an error path that no test executes would surface only as a
    # TypeError in a user's run.  Every call in the package that constructs
    # an error class passes at most the message positionally, no ``**``
    # mapping, and only keywords the class's ``context`` declares; and each
    # declared keyword is passed by some call, so no ``context`` entry is dead.
    classes = {
        name: cls for name, cls in vars(errors).items() if isinstance(cls, type) and issubclass(cls, errors.IntHamError)
    }
    built, wrong = set(), []
    for path in sorted(Path(intham.__file__).parent.glob("*.py")):
        for call in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(call, ast.Call):
                continue
            cls = classes.get(ast.unparse(call.func).split(".")[-1])
            if cls is None:
                continue
            built.update((cls.__name__, kw.arg) for kw in call.keywords)
            keys = [kw.arg for kw in call.keywords]
            if len(call.args) > 1 or any(isinstance(a, ast.Starred) for a in call.args) or not set(keys) <= set(cls.context):
                wrong.append(f"{path.name}:{call.lineno} {ast.unparse(call)}")
    carried = {(name, key) for name, cls in classes.items() for key in cls.context}
    assert carried <= built and wrong == []


def test_mode_runners_leave_the_disk_to_run():
    # ``cli.run`` writes a mode's table and report once the mode has
    # returned, so an erroring run leaves no file or directory; a runner
    # that took ``out`` or wrote for itself would break that.
    path = Path(intham.__file__).parent / "cli.py"
    runners = [
        fn for fn in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(fn, ast.FunctionDef) and fn.name.startswith("_mode_")
    ]
    found = []
    for fn in runners:
        if "out" in {arg.arg for arg in ast.walk(fn.args) if isinstance(arg, ast.arg)}:
            found.append(f"{fn.name} takes out")
        for call in (n for n in ast.walk(fn) if isinstance(n, ast.Call)):
            name = ast.unparse(call.func)
            if name.split(".")[-1] in ("open", "mkdir", "_write_csv") or name == "csv.writer":
                found.append(f"cli.py:{call.lineno} {fn.name} calls {name}")
    assert len(runners) == 7 and found == []


def test_every_site_parameter_is_read_by_the_shape():
    # A site argument has one reader, ``LatticeShape.site``: test_fields
    # checks each entry of SITE_READERS against floats, Fractions, wrong
    # dimensions and wrapped coordinates.  Every public callable of
    # ``intham.fields`` with a parameter of a site's name that is annotated
    # with ``Site``, or not annotated at all, must have an entry there.
    names = {"x", "a", "b", "origin", "sites", "site_order"}
    found = set()
    for name, obj in vars(fields).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != fields.__name__:
            continue
        members = [(name, obj)] if callable(obj) else []
        if inspect.isclass(obj):
            members += [
                (f"{name}.{m}", getattr(obj, m)) for m in vars(obj) if not m.startswith("_") and inspect.isroutine(getattr(obj, m))
            ]
        for qualname, fn in members:
            for param in inspect.signature(fn).parameters.values():
                annotation = param.annotation
                if param.name in names and (annotation is inspect.Parameter.empty or "Site" in str(annotation)):
                    found.add((qualname, param.name))
    assert ("step_parity", "site_order") in found and sorted(found) == sorted(SITE_READERS)
