import ast
import importlib
import inspect
import pathlib
import re
import sys

import gridlab

SRC = pathlib.Path(gridlab.__file__).parent
ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_no_bare_assert_in_package():
    # python -O strips assert statements, so invariant checks must raise
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def _foreign_imports(tree):
    """(line, module) of each import in `tree` of a module outside the
    standard library and gridlab; relative imports are gridlab's own."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        found += [(node.lineno, module) for module in modules
                  if module.partition(".")[0] not in
                  sys.stdlib_module_names | {"gridlab"}]
    return found


def test_package_imports_only_the_standard_library():
    # gridlab has no runtime dependency
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{line}: {module}"
                  for line, module in _foreign_imports(tree)]
    assert found == []
    for source in ("import numpy", "import os, numpy.linalg",
                   "from requests.adapters import HTTPAdapter"):
        assert len(_foreign_imports(ast.parse(source))) == 1, source
    for source in ("import os.path", "from . import graph",
                   "from gridlab import cli", "from .errors import X",
                   "from __future__ import annotations"):
        assert _foreign_imports(ast.parse(source)) == [], source


def _test_extra(pyproject):
    """Module names of the requirements in the `test` extra of the
    pyproject.toml text `pyproject`, read without tomllib, which Python
    3.10 lacks."""
    section = pyproject.split("[project.optional-dependencies]")[1]
    body = re.search(r"^test = \[(.*?)\]", section, re.M | re.S).group(1)
    body = "\n".join(line.partition("#")[0] for line in body.splitlines())
    return {re.match(r"[\w.-]+", req).group(0).lower().replace("-", "_")
            for req in re.findall(r'"([^"]*)"', body)}


def test_test_imports_are_declared():
    # tests/ and gridbench/ run in an environment built from the test
    # extra; a module with a file beside the importer is their own
    declared = _test_extra((ROOT / "pyproject.toml").read_text())
    found = []
    for folder in ("tests", "gridbench"):
        for path in sorted((ROOT / folder).glob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            for line, module in _foreign_imports(tree):
                top = module.partition(".")[0]
                if (top not in declared
                        and not (path.parent / f"{top}.py").exists()):
                    found.append(f"{folder}/{path.name}:{line}: {module}")
    assert found == []
    assert _test_extra('[project.optional-dependencies]\ntest = [\n'
                       '    "pytest>=7",  # "numpy"\n    "Foo-Bar",\n]\n'
                       '[tool.x]\ntest = ["y"]\n') == {"pytest", "foo_bar"}


def _python_floor(pyproject):
    """(major, minor) of the `requires-python = ">=X.Y"` line of the
    pyproject.toml text `pyproject`, read without tomllib."""
    m = re.search(r'^requires-python = ">=(\d+)\.(\d+)"', pyproject, re.M)
    return int(m.group(1)), int(m.group(2))


def _newer_syntax(source, floor):
    """The first line of `source` that Python `floor` cannot parse, as
    "line: message", or None."""
    try:
        ast.parse(source, feature_version=floor)
    except SyntaxError as exc:
        return f"{exc.lineno}: {exc.msg}"
    return None


def test_package_parses_at_the_declared_python_floor():
    # the installer trusts requires-python; syntax newer than the floor
    # would install and then fail at import
    floor = _python_floor((ROOT / "pyproject.toml").read_text())
    found = []
    for path in sorted(SRC.glob("*.py")):
        error = _newer_syntax(path.read_text(), floor)
        if error is not None:
            found.append(f"{path.name}:{error}")
    assert found == []
    assert _python_floor('[project]\nname = "x"\n'
                         'requires-python = ">=3.10"\n') == (3, 10)
    for source in ("try:\n    pass\nexcept* ValueError:\n    pass\n",
                   "type X = int\n", "def f[T](x: T):\n    pass\n"):
        assert _newer_syntax(source, (3, 10)) is not None, source
    for source in ("match x:\n    case [y]:\n        pass\n",
                   "with (open(a) as f, open(b) as g):\n    pass\n",
                   "def f(x: int | None): pass\n"):
        assert _newer_syntax(source, (3, 10)) is None, source


def test_no_indented_json_dumps_in_package():
    # json.dumps(..., indent=...) runs CPython's pure-Python encoder;
    # indented output goes through minors.model_dumps instead
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr in ("dump", "dumps")
                  and isinstance(node.func.value, ast.Name)
                  and node.func.value.id == "json"
                  and any(k.arg == "indent" for k in node.keywords)]
    assert found == []


def _write_opens(tree, writer=None):
    """Lines of `tree` that open a file for writing outside the function
    named `writer`: open() in a write, append or update mode (or in a
    mode that is not a literal), any os.open(), and Path.write_text or
    Path.write_bytes."""
    skip = {id(node) for f in ast.walk(tree)
            if isinstance(f, ast.FunctionDef) and f.name == writer
            for node in ast.walk(f)}
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or id(node) in skip:
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open":
            mode = node.args[1] if len(node.args) > 1 else next(
                (k.value for k in node.keywords if k.arg == "mode"),
                ast.Constant("r"))
            if not (isinstance(mode, ast.Constant)
                    and not set("wax+") & set(mode.value)):
                found.append(node.lineno)
        elif isinstance(func, ast.Attribute) and (
                func.attr in ("write_text", "write_bytes")
                or func.attr == "open" and isinstance(func.value, ast.Name)
                and func.value.id == "os"):
            found.append(node.lineno)
    return found


def test_files_are_written_only_through_the_writer():
    # open(path, "w") cuts a file to zero before rewriting it, which on
    # ext4 starts its writeback on close; graph._write_text rewrites in
    # place, and no other code in the package may open a file to write
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        writer = "_write_text" if path.name == "graph.py" else None
        found += [f"{path.name}:{line}"
                  for line in _write_opens(tree, writer)]
    assert found == []
    graph_tree = ast.parse((SRC / "graph.py").read_text())
    assert _write_opens(graph_tree) != []  # the writer itself
    for source in ('open(p, "w")', 'open(p, "ab")', 'open(p, "r+")',
                   'open(p, mode="x")', "open(p, m)", "os.open(p, 1)",
                   "q.write_text(t)", "q.write_bytes(b)"):
        assert _write_opens(ast.parse(source)) == [1], source
    for source in ("open(p)", 'open(p, "rb")',
                   'open(p, encoding="utf-8")', "q.read_text()"):
        assert _write_opens(ast.parse(source)) == [], source


def test_public_loaders_raise_only_format_error():
    # _raises_format_error turns whatever a parser raises on malformed
    # text into FormatError, which the CLI maps to exit 2.  The private
    # cli._emb_map_loads raises FormatError itself
    loaders, bare = set(), []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if (isinstance(node, ast.FunctionDef)
                    and node.name.endswith("_loads")
                    and not node.name.startswith("_")):
                loaders.add(node.name)
                if not any(getattr(d, "id", None) == "_raises_format_error"
                           for d in node.decorator_list):
                    bare.append(f"{path.name}:{node.name}")
    assert loaders >= {"emb_loads", "gr_loads", "model_loads",
                       "sequence_loads", "td_loads"}
    assert bare == []


# the functions whose pairs are int (u, v) with 0 <= u < v < n by
# construction, and the only ones that may build a graph unchecked
UNCHECKED_PRODUCERS = {
    ("embedding.py", "EmbeddedGraph.simple_graph"),
    ("embedding.py", "dual_graph"), ("embedding.py", "map_graph"),
    ("embedding.py", "radial_graph"), ("embedding.py", "union_radial_dual"),
    ("graph.py", "SimpleGraph.subgraph"), ("graph.py", "_power_with_balls")}


def _trusted_uses(tree):
    """(line, scope) of each use of an attribute named `_trusted` in
    `tree`; scope is the dotted name of the enclosing classes and
    functions, or "<module>"."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.Attribute) and child.attr == "_trusted":
                found.append((child.lineno, ".".join(scope) or "<module>"))
            visit(child, scope)
    visit(tree, [])
    return found


def test_graphs_are_built_unchecked_only_by_the_producers():
    # SimpleGraph._trusted skips every edge check, so no loader or
    # other reader of outside data may call it
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found |= {(path.name, scope) for _, scope in _trusted_uses(tree)}
    assert found == UNCHECKED_PRODUCERS
    producers = {scope for _, scope in UNCHECKED_PRODUCERS}
    assert not any(scope.endswith("_loads") or scope == "_graph_from_json"
                   for scope in producers)
    for source, scope in (
            ("def gr_loads(text):\n    return SimpleGraph._trusted(1, [])",
             "gr_loads"),
            ("def _graph_from_json(obj, what):\n"
             "    return SimpleGraph._trusted(n, edges)", "_graph_from_json"),
            ("g = SimpleGraph._trusted(2, [(0, 1)])", "<module>"),
            ("make = SimpleGraph._trusted", "<module>"),
            ("def map_graph(e, fl):\n    def f():\n"
             "        return SimpleGraph._trusted(0, ())", "map_graph.f"),
            ("class MinorModel:\n    def host(self):\n"
             "        return SimpleGraph._trusted(0, ())", "MinorModel.host")):
        uses = _trusted_uses(ast.parse(source))
        assert [s for _, s in uses] == [scope], source
        assert scope not in producers, source
    assert _trusted_uses(ast.parse(
        "def map_graph(e, fl):\n    return SimpleGraph._trusted(0, ())")) == [
            (2, "map_graph")]
    assert _trusted_uses(ast.parse("SimpleGraph(2, [(0, 1)])")) == []


def _literal(path, name):
    """Value of the module-level literal assignment `name` in `path`."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == name
                        for t in node.targets)):
            return ast.literal_eval(node.value)
    raise KeyError(f"{path.name} has no literal {name}")


def test_benchmark_span_names_exist():
    # the benchmark traces gridlab by name; a refactor that renames or
    # deletes a traced attribute must fail here, not only in a traced run
    bench = SRC.parents[1] / "gridbench"
    layers = _literal(bench / "spans.py", "LAYERS")
    module_of = {layer: module for module, layer in layers.items()}
    names = set()
    for spans in _literal(bench / "run.py", "EXPECTED_SPANS").values():
        for span in spans:
            layer, _, attr = span.partition(".")
            names.add((module_of[layer], attr))
    for module, cls, method in _literal(bench / "spans.py", "METHODS"):
        names.add((module, f"{cls}.{method}"))
    for function in _literal(bench / "spans.py", "KERNEL_FUNCTIONS"):
        names.add(("gridlab._kernels", function))
    missing = []
    for module, attr in sorted(names):
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if obj is None:
            missing.append(f"{module}.{attr}")
    assert len(names) == 45 and missing == []


def test_public_api_is_pinned():
    # adding or dropping a public name must show up as an edit here
    public = sorted(name for name, obj in vars(gridlab).items()
                    if not name.startswith("_") and not inspect.ismodule(obj))
    assert public == [
        "Bipartition", "BoundReport", "CliqueWitness", "ConstructionError",
        "ContractionSequence", "EmbeddedGraph", "FaceLabeling", "FormatError",
        "GridlabError", "KERNEL_IMPLEMENTATION", "MinorModel", "SimpleGraph",
        "SizeLimitError", "TreeDecomposition", "Violation", "all_nations",
        "canonicalize", "canonicalize_components", "decomposition_from_order",
        "double_radial_minor", "dual_graph", "emb_dump", "emb_dumps",
        "emb_loads", "gr_dump", "gr_dumps", "gr_loads", "grid", "grid_map",
        "is_canonical", "k_neighborhood", "largest_grid_minor", "lift_power",
        "lift_radial_to_map", "map_graph", "minor_containment_exact",
        "model_dumps", "model_loads", "nation_grid_transfer_instance",
        "partially_triangulated_grid", "power_clique_or_bound", "power_graph",
        "primal_dual_width_report", "radial_embedding", "radial_graph",
        "radial_grid_to_dual_grid", "random_canonical_map", "random_graph",
        "random_planar_triangulation", "sequence_dumps", "sequence_loads",
        "td_dump", "td_dumps", "td_loads", "treewidth_exact",
        "treewidth_upper", "union_radial_dual", "verify_model",
        "vertex_cover_dp", "wheel_map"]
