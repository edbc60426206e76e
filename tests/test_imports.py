import ast
import importlib
import os
import pathlib
import subprocess
import sys

import pytest

import flagiso

_MODULES = sorted(
    p for p in pathlib.Path(flagiso.__file__).parent.glob("*.py") if p.name != "__init__.py"
)


def _unused_imports(source):
    """Names a module imports (at any depth) but never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert _unused_imports(path.read_text()) == []


def test_scan_finds_an_unused_import():
    assert _unused_imports("import os\nfrom x import a, b as c\nc()\n") == [(1, "os"), (2, "a")]


_ENVIRONMENT = {"environ", "environb", "getenv", "getenvb"}


def _environment_reads(source):
    """Sorted line numbers that read the environment: ``os.environ``,
    ``os.getenv`` (or the bytes forms), or import them from ``os``."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in _ENVIRONMENT:
            if isinstance(node.value, ast.Name) and node.value.id == "os":
                lines.add(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            if any(a.name in _ENVIRONMENT for a in node.names):
                lines.add(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.name)
def test_module_reads_no_environment(path):
    # the library has no environment knobs: what it does depends on its
    # arguments alone
    assert _environment_reads(path.read_text()) == []


def test_scan_finds_an_environment_read():
    source = (
        "import os\nfrom os import getenv as g, sep\nx = os.environ.get('A')\n"
        "y = os.getenv('B')\nz = os.sep + os.environ['C']\nw = environ\n"
    )
    assert _environment_reads(source) == [2, 3, 4, 5]


_CACHES = {"cache", "lru_cache"}


def _unbounded_caches(source):
    """Sorted line numbers of every ``functools`` cache with no finite
    ``maxsize``: ``cache``, ``lru_cache`` used bare, and ``lru_cache`` called
    without a maxsize or with ``maxsize=None``."""
    tree = ast.parse(source)
    names = {
        alias.asname or alias.name: alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "functools"
        for alias in node.names
        if alias.name in _CACHES
    }

    def cache_name(node):
        if isinstance(node, ast.Name):
            return names.get(node.id)
        if isinstance(node, ast.Attribute) and node.attr in _CACHES:
            if isinstance(node.value, ast.Name) and node.value.id == "functools":
                return node.attr
        return None

    lines, called = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and cache_name(node.func) == "lru_cache":
            called.add(node.func)
            sizes = node.args[:1] + [k.value for k in node.keywords if k.arg == "maxsize"]
            if not sizes or (isinstance(sizes[0], ast.Constant) and sizes[0].value is None):
                lines.add(node.lineno)
    for node in ast.walk(tree):
        if cache_name(node) and node not in called:
            lines.add(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.name)
def test_every_cache_is_bounded(path):
    # a per-process memo keyed by what a caller passes grows with every
    # distinct key unless its size is bounded
    assert _unbounded_caches(path.read_text()) == []


def test_scan_finds_an_unbounded_cache():
    source = (
        "import functools\nfrom functools import cache, lru_cache as lru\n"
        "@lru\ndef a(): pass\n@lru(maxsize=None)\ndef b(): pass\n"
        "@functools.cache\ndef c(): pass\n@lru(None)\ndef d(): pass\n"
        "@lru(maxsize=64)\ndef e(): pass\nf = functools.lru_cache(8)(e)\n"
        "g = lru()(e)\n"
    )
    assert _unbounded_caches(source) == [3, 5, 7, 9, 14]


def _unread_locals(source):
    """Sorted (function, name) of every name a function stores (nested
    functions included) but never reads; ``_`` is exempt."""
    out = set()
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        names = [n for n in ast.walk(fn) if isinstance(n, ast.Name)]
        read = {n.id for n in names if isinstance(n.ctx, ast.Load)}
        out.update(
            (fn.name, n.id)
            for n in names
            if isinstance(n.ctx, ast.Store) and n.id not in read and n.id != "_"
        )
    return sorted(out)


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.name)
def test_function_reads_every_local_it_assigns(path):
    assert _unread_locals(path.read_text()) == []


def test_scan_finds_an_unread_local():
    source = (
        "def f(x):\n    a, _ = x\n    for i, row in x:\n        b = row\n    return b\n"
        "def g():\n    total = 0\n    total += 1\n"
    )
    assert _unread_locals(source) == [("f", "a"), ("f", "i"), ("g", "total")]


def _read_names(paths):
    """Every name read, imported or looked up as an attribute, per top-level
    statement: {(path, index of the statement): names}."""
    out = {}
    for path in paths:
        for i, stmt in enumerate(ast.parse(path.read_text()).body):
            names = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.asname or node.name)
            out[(path, i)] = names
    return out


def test_every_public_definition_has_a_caller():
    # A public function or class of the library stays only if other library
    # code or the benchmark reads it, or the package exports it; test-only
    # capabilities belong with the tests.
    bench = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
    reads = _read_names(_MODULES + sorted(bench.rglob("*.py")))
    exported = set(flagiso.__all__)
    unread = []
    for path in _MODULES:
        for i, stmt in enumerate(ast.parse(path.read_text()).body):
            if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                continue
            name = stmt.name
            if name.startswith("_") or name in exported:
                continue
            if not any(name in names for key, names in reads.items() if key != (path, i)):
                unread.append(f"{path.name}:{name}")
    assert unread == []


def _library_attributes(paths):
    """Sorted (module, name) of every ``<alias>.<name>`` read where the alias
    is bound by ``import flagiso.X as alias`` or ``from flagiso import X [as
    alias]``."""
    out = set()
    for path in paths:
        tree = ast.parse(path.read_text())
        aliases = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for a in node.names:
                    if a.name.startswith("flagiso.") and a.asname:
                        aliases[a.asname] = a.name
            elif isinstance(node, ast.ImportFrom) and node.module == "flagiso":
                for a in node.names:
                    aliases[a.asname or a.name] = f"flagiso.{a.name}"
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id in aliases:
                    out.add((aliases[node.value.id], node.attr))
    return sorted(out)


def test_every_library_name_the_benchmark_reads_resolves():
    # tier-1 does not run the benchmark, so a library function that only the
    # benchmark calls could be renamed or deleted with no other test failing
    bench = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
    reads = _library_attributes(sorted(bench.glob("*.py")))
    assert ("flagiso.witness", "enumerate_bd_sources") in reads
    missing = [f"{m}.{n}" for m, n in reads if not hasattr(importlib.import_module(m), n)]
    assert missing == []


def test_library_attribute_scan_finds_aliased_reads(tmp_path):
    path = tmp_path / "m.py"
    path.write_text(
        "import os\nimport flagiso.witness as W\nfrom flagiso import linalg as la\n"
        "def f(x):\n    return W.gone(la.rank(x), os.sep, x.attr)\nla.stack\n"
    )
    assert _library_attributes([path]) == [
        ("flagiso.linalg", "rank"),
        ("flagiso.linalg", "stack"),
        ("flagiso.witness", "gone"),
    ]


def _builders(paths, cls):
    """(file, enclosing definition) of every call ``cls(...)`` or
    ``<module>.cls(...)``: the top-level definition, or ``Class.method`` for
    a call in a method."""
    out = []
    for path in paths:
        for stmt in ast.parse(path.read_text()).body:
            scopes = [(stmt, getattr(stmt, "name", None))]
            if isinstance(stmt, ast.ClassDef):
                scopes = [(sub, f"{stmt.name}.{getattr(sub, 'name', '')}") for sub in stmt.body]
            for scope, name in scopes:
                for node in ast.walk(scope):
                    if isinstance(node, ast.Call):
                        f = node.func
                        if (f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)) == cls:
                            out.append((path.name, name))
    return out


def _library_benchmark_and_tests():
    root = pathlib.Path(__file__).resolve().parent.parent
    return _MODULES + sorted((root / "perfbench").rglob("*.py")) + sorted(root.glob("tests/*.py"))


def test_only_eliminated_rows_become_an_echelon():
    # the kernel trusts an Echelon over its field without reducing it, so
    # nothing but the rows of elimination (rref and rowspace_chain finish
    # them in _form) may be one
    assert set(_builders(_library_benchmark_and_tests(), "Echelon")) == {("linalg.py", "_form")}


def test_echelon_scan_finds_a_builder(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("def f(la):\n    return la.Echelon((), None, ())\nEchelon([], 1, ())\n")
    assert _builders([path], "Echelon") == [("m.py", "f"), ("m.py", None)]


def test_only_split_form_and_restrict_build_a_form():
    # a Form is never checked, so only the two builders that know its rows,
    # Lie type and terms may make one
    assert set(_builders(_library_benchmark_and_tests(), "Form")) == {
        ("witness.py", "split_form"),
        ("witness.py", "Form.restrict"),
    }


def test_form_scan_finds_a_builder(tmp_path):
    path = tmp_path / "m.py"
    path.write_text(
        "import flagiso.witness as W\ndef f(r, q):\n    return W.Form(r, q, 'D', ())\n"
        "class K:\n    def g(self):\n        return Form((), None, 'C', ())\n    h = Form\n"
    )
    assert _builders([path], "Form") == [("m.py", "f"), ("m.py", "K.g")]


def test_one_builder_makes_the_chains_of_standard_extensions():
    # applying data, composing them and the duality conjugate all build
    # alpha(F_kappa(j)) + K_j, through one builder
    witness = [p for p in _MODULES if p.name == "witness.py"]
    assert _builders(witness, "rowspace_chain") == [("witness.py", "_chain_image")]


def test_chain_scan_finds_a_caller(tmp_path):
    path = tmp_path / "m.py"
    path.write_text(
        "from flagiso import linalg as la\ndef f(b, k):\n    return list(la.rowspace_chain(b, k))\n"
        "def g(b, k):\n    return rowspace_chain(b, k)\nh = la.rowspace_chain\n"
    )
    assert _builders([path], "rowspace_chain") == [("m.py", "f"), ("m.py", "g")]


def test_only_the_builders_make_points_and_extension_data():
    # the benchmark's tracer times witness.flag_point and
    # witness.standard_extension by name, so a library call that built the
    # class directly would drop out of those spans
    assert set(_builders(_MODULES, "FiniteFlagPoint")) == {("witness.py", "flag_point")}
    assert set(_builders(_MODULES, "StandardExtensionData")) == {
        ("witness.py", "standard_extension")
    }


def test_only_values_and_bases_are_tested_for_containment():
    # a point and extension data check their nesting when built, so no
    # consumer tests it again; the gap classes and bd_phi test other spaces
    witness = [p for p in _MODULES if p.name == "witness.py"]
    assert set(_builders(witness, "rowspace_contains")) == {
        ("witness.py", "FiniteFlagPoint.__post_init__"),
        ("witness.py", "StandardExtensionData.__post_init__"),
        ("witness.py", "_gap_classes"),
        ("witness.py", "bd_phi"),
    }


def _attribute_readers(paths, attrs):
    """(file, enclosing top-level definition) of every attribute read whose
    name is in ``attrs``."""
    out = []
    for path in paths:
        for stmt in ast.parse(path.read_text()).body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Attribute) and node.attr in attrs:
                    out.append((path.name, getattr(stmt, "name", None)))
    return out


def _library_and_benchmark():
    root = pathlib.Path(__file__).resolve().parent.parent
    return _MODULES + sorted((root / "perfbench").rglob("*.py"))


def test_only_linalg_reads_echelon_ints():
    # the int rows and denominators of a Cleared value (an Echelon among
    # them) are the kernel's own representation; the library and the
    # benchmark use its rows (the tests check the invariants)
    readers = _attribute_readers(_library_and_benchmark(), ("ints", "dens"))
    assert {name for name, _ in readers} == {"linalg.py"}


def test_ints_scan_finds_a_reader(tmp_path):
    path = tmp_path / "m.py"
    path.write_text(
        "def f(e):\n    return e.ints\ndef g(m):\n    return m.dens[0]\nx = ints, dens\n"
    )
    assert _attribute_readers([path], ("ints", "dens")) == [("m.py", "f"), ("m.py", "g")]


def test_only_witness_reads_form_terms():
    # the quadratic terms of a witness.Form are its own representation, in
    # coefficients for a restriction; other code asks the form for Q, the
    # polar functional, B, perp or a keep
    readers = _attribute_readers(_library_and_benchmark(), ("terms",))
    assert {name for name, _ in readers} == {"witness.py"}


def test_terms_scan_finds_a_reader(tmp_path):
    path = tmp_path / "m.py"
    path.write_text(
        "def f(form):\n    return form.terms\nclass K:\n    t = x.terms[0]\nterms = 1\n"
    )
    assert _attribute_readers([path], ("terms",)) == [("m.py", "f"), ("m.py", "K")]


# -- the package namespace and cold imports ----------------------------------

_EXPORTED = [
    "DecisionResult", "FiniteFlagVariety", "FlagDescriptor", "FlagisoError", "FormType",
    "INF", "QPolynomial", "Reason", "ResourceLimitError", "ThresholdError",
    "ValidationError", "Verdict", "WeightedOrder", "brute_force_count", "counting",
    "decide", "decide_finite", "decide_ind", "descriptor_from_json", "descriptor_to_json",
    "descriptors", "dimension", "dual", "errors", "finite_flag_variety", "full_chain",
    "general_flags", "is_isomorphic", "linalg", "min_truncation_width", "normalize",
    "omega", "omegastar", "orders", "orthogonal_flags", "parse_descriptor", "parse_order",
    "pic_rank", "poincare_polynomial", "point_count", "render_descriptor", "render_order",
    "reverse", "seq", "symplectic_flags", "total_dimension", "truncate",
    "truncate_to_variety", "validate", "witness",
]


def test_package_exports_the_pinned_names():
    assert sorted(flagiso.__all__) == _EXPORTED
    assert set(_EXPORTED) <= set(dir(flagiso))


@pytest.mark.parametrize("name", _EXPORTED)
def test_exported_name_is_its_defining_module_attribute(name):
    value = getattr(flagiso, name)
    if name in ("counting", "decide", "descriptors", "errors", "linalg", "orders", "witness"):
        assert value is importlib.import_module(f"flagiso.{name}")
    else:
        assert value is getattr(importlib.import_module(value.__module__), name)


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from flagiso import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == _EXPORTED


def test_unknown_package_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        flagiso.no_such_name
    with pytest.raises(ImportError):
        exec("from flagiso import no_such_name", {})


def _loaded_by(*argv):
    """The flagiso modules and ``fractions`` in ``sys.modules`` after a fresh
    interpreter imports the package and its CLI and, given ``argv``, runs
    that command as the ``flagiso`` script does."""
    code = (
        "import sys\nimport flagiso, flagiso.cli\n"
        "if sys.argv[1:]:\n    assert flagiso.cli.main(sys.argv[1:]) == 0\n"
        "print(*sorted(m for m in sys.modules if m.split('.')[0] in ('flagiso', 'fractions')))\n"
    )
    src = str(pathlib.Path(flagiso.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, env=env, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


def test_importing_the_package_and_cli_loads_no_other_module():
    assert _loaded_by() == {"flagiso", "flagiso.cli", "flagiso.errors"}


_HEAVY = {"flagiso.witness", "flagiso.linalg", "flagiso.generate", "flagiso.selftest"}


@pytest.mark.parametrize(
    "argv",
    [
        ["decide", "gen: seq[1,inf]", "symp: half=seq[1]; middle=inf"],
        ["normalize", "seq[1,2] + omega(1)"],
        ["dual", "gen: seq[1,inf]"],
        ["pic-rank", "gen: omega(1)"],
        ["truncate", "orth: half=seq[1]; middle=inf", "--width", "5"],
    ],
    ids=lambda argv: argv[0],
)
def test_descriptor_command_loads_no_counting_or_witness_code(argv):
    loaded = _loaded_by(*argv)
    assert not loaded & (_HEAVY | {"flagiso.counting", "fractions"})
    assert "flagiso.orders" in loaded


@pytest.mark.parametrize("command", ["points", "poincare", "dim"])
def test_closed_form_count_loads_no_witness_code(command):
    flags = ["--type", "B", "--ambient", "5", "--dims", "1,2"]
    loaded = _loaded_by(command, *flags, *(["--q", "3"] if command == "points" else []))
    assert not loaded & _HEAVY
    assert "flagiso.counting" in loaded
