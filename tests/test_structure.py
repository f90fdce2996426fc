"""Structural rules of the package, read from its source with ``ast``."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "tinpower"
MODULES = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _scoped(tree, kind) -> list[tuple[str, ast.AST]]:
    """Each node of type ``kind`` with its dotted scope (class and function
    names)."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = scope + (child.name,)
            elif isinstance(child, kind):
                found.append((".".join(scope), child))
            visit(child, inner)

    visit(tree, ())
    return found


def _calls(tree, name) -> list[tuple[str, ast.Call]]:
    """Each call of ``name``, called bare or as an attribute, with its scope."""
    return [(scope, call) for scope, call in _scoped(tree, ast.Call)
            if getattr(call.func, "id", getattr(call.func, "attr", None)) == name]


def _callers(tree, name) -> list[str]:
    """The dotted scope of each call of ``name``."""
    return [scope for scope, _ in _calls(tree, name)]


def test_channels_are_validated_only_where_built():
    # every channel is checked by its constructor; `validate` reports on the
    # one channel the loader builds unchecked for it
    callers = sorted(f"{module}.{scope}" for module, tree in MODULES.items()
                     for scope in _callers(tree, "validate"))
    assert callers == ["channel.CompoundChannel.__new__", "cli.cmd_validate"]


def test_a_regular_channel_is_a_compound_channel():
    # it inherits the fields, the check and `_make`/`_replace`, and adds only
    # its own check, its constructors and its readers
    regular = next(node for node in ast.walk(MODULES["channel"])
                   if isinstance(node, ast.ClassDef) and node.name == "RegularChannel")
    assert [ast.unparse(base) for base in regular.bases] == ["CompoundChannel"]
    defined = {node.name for node in regular.body if isinstance(node, ast.FunctionDef)}
    assert not defined & {"K", "receivers", "state_counts", "_make"}
    classes = {node.name for node in ast.walk(MODULES["channel"])
               if isinstance(node, ast.ClassDef)}
    assert "_RegularFields" not in classes


def test_lattices_are_found_where_rationals_are_scaled():
    # a potential graph carries its lattice, so Bellman-Ford
    # (`shortest_paths`), the certificates (`Verdict`, `improvable_users`),
    # `decide`, the controls (`_gsfpc`, `_ggpc`) and the sum optimum's
    # circulation (`sum_gdof`) read the graph's `scale` and never rescale;
    # the counterpart and the full graph's states are found on each
    # receiver's lattice, and a graph writer scales only the target
    callers = {f"{module}.{scope}" for module, tree in MODULES.items()
               for scope in _callers(tree, "lcm_scaled")}
    assert sorted(callers) == [
        "channel._counterpart_rows", "channel.receiver_levels",
        "potential.lattice_graph", "power.oracle_globally_optimal"]


def test_decisions_read_the_int_counterpart():
    # the decisions and the symmetric optimum build no `Fraction`
    # counterpart and find no lattice: they read `counterpart_lattice`,
    # computed once per call
    for name in ("decide", "_decide", "symmetric_gdof"):
        for callee in ("regular_counterpart", "lcm_scaled"):
            assert name not in _callers(MODULES["region"], callee)
    for name in ("decide", "symmetric_gdof"):
        assert name in _callers(MODULES["region"], "counterpart_lattice")


def test_controls_read_only_the_decision_graph():
    # the controls iterate on the Verdict's graph: nothing in `power` reads a
    # counterpart's matrix, and a Verdict holds no counterpart to read
    read = {node.attr for node in ast.walk(MODULES["power"])
            if isinstance(node, ast.Attribute)}
    assert not read & {"matrix", "counterpart"}
    verdict = next(node for node in ast.walk(MODULES["region"])
                   if isinstance(node, ast.ClassDef) and node.name == "Verdict")
    fields = [node.target.id for node in verdict.body if isinstance(node, ast.AnnAssign)]
    assert fields == ["graph", "sp", "bound", "potentials"]


def test_a_yes_is_certified_only_where_it_is_decided():
    # `_decide` scales the shortest-path lengths onto the graph's lattice and
    # checks every reduced length under them, once; every reader takes the
    # verdict's int potentials as they are, and no method rebuilds the edges
    scaled = [f"{module}.{scope}" for module, tree in MODULES.items()
              for scope, call in _calls(tree, "on_lattice") if "l_dst" in ast.unparse(call)]
    assert scaled == ["region._decide"]
    checks = [f"{module}.{scope}" for module, tree in MODULES.items()
              for scope, node in _scoped(tree, ast.Constant)
              if isinstance(node.value, str) and "leave a negative edge" in node.value]
    assert checks == ["region._decide"]
    assert not any(isinstance(node, ast.FunctionDef) and node.name == "reduced_edges"
                   for tree in MODULES.values() for node in ast.walk(tree))


def test_sum_optimum_runs_on_the_certified_start():
    # the circulation reads the d = 0 verdict's graph and potentials, which
    # `decide` certified; the simplex on the potential form is the tests'
    # reference only
    circulation = ast.unparse(_function(MODULES["region"], "sum_gdof"))
    assert "verdict.potentials" in circulation and "verdict.graph.edges" in circulation
    defined = {node.name for node in ast.walk(MODULES["region"])
               if isinstance(node, ast.FunctionDef)}
    assert not defined & {"_lex_max", "_potential_rows"}


def test_graph_lengths_become_rationals_only_where_reported():
    # `build_full` writes int lengths; the dump and the reported distances
    # and circuit length are the only rationals the graph layer builds
    scopes = set(_callers(MODULES["potential"], "Fraction"))
    assert scopes == {"PotentialGraph.dump", "shortest_paths"}


def test_only_the_graph_writer_indexes_vertices():
    # `lattice_graph` writes each edge by its ends' indices into `vertices`;
    # the graph's readers in `potential`, `region` and `power` use those
    # indices as written, read the labels only to report them (the dump,
    # the circuit, each user's distance) and key no table by a label
    readers, keyed = set(), []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = scope + (child.name,)
            elif isinstance(child, ast.Attribute) and child.attr == "vertices":
                readers.add(".".join(scope))
            elif isinstance(child, ast.DictComp) and "vertices" in ast.unparse(child):
                keyed.append(".".join(scope))
            visit(child, inner)

    for module in ("potential", "region", "power"):
        visit(MODULES[module], (module,))
    assert readers == {"potential.PotentialGraph.dump", "potential.shortest_paths"}
    assert keyed == []


@pytest.mark.parametrize("module", sorted(MODULES))
def test_no_private_name_crosses_modules(module):
    imported = {
        (node.module, alias.name)
        for node in ast.walk(MODULES[module])
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").split(".")[0] == "tinpower")
        for alias in node.names if alias.name.startswith("_")}
    assert imported == set()


def test_literal_lists_parse_only_in_the_channel_layer():
    # `from_lists` and the CLI's loader share `parse_receivers`, which keeps
    # one literal memo per document and drops duplicate states
    callers = {f"{module}.{scope}" for module, tree in MODULES.items()
               for scope in _callers(tree, "rational_parser")}
    assert callers == {"channel.parse_receivers"}
    assert _callers(MODULES["cli"], "parse_receivers") == ["load_channel_file"]
    assert _callers(MODULES["channel"], "parse_receivers") == ["CompoundChannel.from_lists"]


def test_channel_files_are_loaded_once_per_call():
    # `_run` loads the file and hands every handler `(args, cf)`
    assert _callers(MODULES["cli"], "load_channel_file") == ["_run"]


def test_unknown_algorithm_is_refused_in_one_place():
    # `solve_power`, `power` and `rates` refuse a name through
    # `check_algorithm`, before any work, with its one copy of the message
    written = [module for module, tree in MODULES.items() for node in ast.walk(tree)
               if isinstance(node, ast.Constant) and isinstance(node.value, str)
               and "unknown algorithm" in node.value]
    assert written == ["power"]
    assert _callers(MODULES["power"], "check_algorithm") == ["solve_power"]
    assert sorted(_callers(MODULES["cli"], "check_algorithm")) == ["cmd_power", "cmd_rates"]


def _function(tree, name) -> ast.FunctionDef:
    return next(node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == name)


def test_cli_never_builds_the_region_list():
    # `region` streams its bounds; the whole list is the library's answer
    # to `region_constraints`, never the export's
    assert _callers(MODULES["cli"], "region_constraints") == []


def test_cycle_bounds_yields_one_user_set_at_a_time():
    body = ast.walk(_function(MODULES["region"], "_cycle_bounds"))
    assert any(isinstance(node, (ast.Yield, ast.YieldFrom)) for node in body)


def test_region_bounds_have_one_public_renderer():
    # `cmd_region` and `RegionConstraints.export_lines` render each bound
    # through `region.bound_lines`, which `cli` imports by its public name
    assert _callers(MODULES["cli"], "bound_lines") == ["cmd_region"]
    assert _callers(MODULES["region"], "bound_lines") == ["RegionConstraints.export_lines"]
    assert any(isinstance(node, ast.ImportFrom) and node.module == "region"
               and "bound_lines" in [alias.name for alias in node.names]
               for node in ast.walk(MODULES["cli"]))


def test_no_module_imports_dataclasses():
    # records are NamedTuples: a dataclass writes its methods through `exec`
    # at every import, which no bytecode cache saves
    for module, tree in MODULES.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert "dataclasses" not in {name.split(".")[0] for name in names}, module


def test_cli_defines_no_exception_class():
    # input problems are plain ValueErrors, reported by `_run` as exit 2
    for node in ast.walk(MODULES["cli"]):
        if isinstance(node, ast.ClassDef):
            bases = {getattr(base, "id", getattr(base, "attr", None)) for base in node.bases}
            assert not any(name.endswith(("Error", "Exception")) for name in bases), node.name


def test_report_heads_are_written_only_in_head():
    # every report's "command" and "channel" keys come from `cli._head`
    scopes = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope + (child.name,) if isinstance(child, ast.FunctionDef) else scope
            if isinstance(child, ast.Dict) and any(
                    isinstance(key, ast.Constant) and key.value == "command"
                    for key in child.keys):
                scopes.append(".".join(scope))
            visit(child, inner)

    visit(MODULES["cli"], ())
    assert scopes == ["_head"]


def test_only_the_process_entry_skips_teardown():
    # `os._exit` ends a CLI process once its report is flushed; `cli.main`
    # returns its code, so tests and embedders keep their interpreter
    exits = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope + (child.name,) if isinstance(child, ast.FunctionDef) else scope
            if isinstance(child, ast.Attribute) and child.attr == "_exit":
                exits.append(".".join(scope))
            visit(child, inner)

    for module, tree in MODULES.items():
        visit(tree, (module,))
    assert exits == ["cli.run_and_exit"]
    assert _callers(MODULES["cli"], "run_and_exit") == [""]  # the `__main__` block


def test_console_script_is_the_process_entry():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    pyproject = tomllib.loads((SRC.parent.parent / "pyproject.toml").read_text())
    assert pyproject["project"]["scripts"]["tinpower"] == "tinpower.cli:run_and_exit"
