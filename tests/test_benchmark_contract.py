"""The benchmark's contract with the package.

`perfbench/` wraps package functions by name and imports package names
directly.  A refactor that removes or moves one of them does not fail the
benchmark run loudly: a missing span target only makes its metrics
absent.  These tests read the benchmark sources (without importing or
editing them) and check that every name they rely on still resolves.
The demos are read the same way, so removing a name a demo uses fails
here rather than only when the demo is run.  The same scan, run over the
acceptance suite too, together with the names the package's own modules
read, checks that the package exports nothing that only unit tests read.
"""

import ast
import importlib
import importlib.util
import json
from pathlib import Path

import pytest

from ybcavity.config import load_config
from ybcavity.transit import TransitConfig

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
PACKAGE = ROOT / "src" / "ybcavity"


def _resolve(module: str, attribute: str):
    obj = importlib.import_module(module)
    for part in attribute.split("."):
        obj = getattr(obj, part)
    return obj


def _span_targets():
    """(module, attribute) pairs of `TARGETS` in perfbench/spans.py."""
    tree = ast.parse((PERFBENCH / "spans.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS"
                for t in node.targets):
            return [(ast.literal_eval(entry.elts[0]),
                     ast.literal_eval(entry.elts[1]))
                    for entry in node.value.elts]
    raise AssertionError("perfbench/spans.py defines no TARGETS list")


def _package_names(source: Path):
    """Every ybcavity (module, attribute) a benchmark file imports, plus
    the attributes it reads off imported ybcavity modules."""
    tree = ast.parse(source.read_text())
    names, modules = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module \
                and node.module.split(".")[0] == "ybcavity":
            for alias in node.names:
                names.add((node.module, alias.name))
                bound = alias.asname or alias.name
                full = f"{node.module}.{alias.name}"
                try:
                    importlib.import_module(full)
                except ModuleNotFoundError:
                    continue
                modules[bound] = full
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "ybcavity":
                    names.add((alias.name, None))
                    modules[alias.asname or "ybcavity"] = \
                        alias.name if alias.asname else "ybcavity"
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        chain, base = [node.attr], node.value
        while isinstance(base, ast.Attribute):
            chain.insert(0, base.attr)
            base = base.value
        if isinstance(base, ast.Name) and base.id in modules:
            module = modules[base.id]
            # descend through submodules, then resolve the attribute
            while chain and _is_module(f"{module}.{chain[0]}"):
                module = f"{module}.{chain.pop(0)}"
            if chain:
                names.add((module, chain[0]))
    return sorted(names, key=str)


def _is_module(name: str) -> bool:
    try:
        importlib.import_module(name)
    except ModuleNotFoundError:
        return False
    return True


@pytest.mark.parametrize("module, attribute", _span_targets())
def test_every_span_target_resolves(module, attribute):
    assert callable(_resolve(module, attribute))


# benchmark files by name, then the demos, which import the package the
# same way
SOURCES = {name: PERFBENCH / name for name in ("worker.py", "checks.py")}
SOURCES.update((f"demos/{path.name}", path) for path in
               sorted((PERFBENCH.parent / "demos").glob("*.py")))


@pytest.mark.parametrize("source", SOURCES)
def test_every_imported_package_name_resolves(source):
    names = _package_names(SOURCES[source])
    assert names, f"{source} imports nothing from ybcavity"
    for module, attribute in names:
        if attribute is None:
            importlib.import_module(module)
        else:
            _resolve(module, attribute)


def _load(name: str):
    """A perfbench module loaded by path; both used here import only the
    standard library at top level and have no import side effects."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_benchmark_config_loads(tmp_path):
    # every config a round writes, and the one-worker scatter re-run that
    # `checks.py` derives from it, passes the config checks and gives the
    # transit configuration and geometry the checks read
    workloads, checks = _load("workloads"), _load("checks")
    paths = []
    for workload in workloads.WORKLOADS:
        for seed in (1, 7):
            for index in range(2):
                round_dir = tmp_path / f"{workload}-{seed}-{index}"
                plan = workloads.prepare(workload, seed, index, round_dir)
                paths += [p for p in round_dir.glob("*.json")
                          if p.name != "plan.json"]
                if workload == "scatter":
                    doc = json.loads((round_dir / plan["config"]).read_text())
                    doc["run"].update(n_runs=checks.FIRST_WINDOWS, threads=1)
                    paths.append(round_dir / "serial.json")
                    paths[-1].write_text(json.dumps(doc))
    assert len(paths) == 2 * 2 * (2 + 1 + 2)   # sweep, transit, scatter
    for path in paths:
        config = load_config(str(path))
        assert isinstance(config.to_transit_config(), TransitConfig)
        assert config.geometry is config.to_transit_config().geometry


def test_every_export_has_a_reader():
    # each name `ybcavity/__init__.py` exports is read by a package module
    # (its own included), or imported by a demo, a benchmark file or the
    # acceptance suite, or named as a span target
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    exports = [alias.asname or alias.name for node in init.body
               if isinstance(node, ast.ImportFrom) for alias in node.names]
    read = {node.id for path in PACKAGE.glob("*.py")
            if path.name != "__init__.py"
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    importers = [*PERFBENCH.glob("*.py"), *(ROOT / "demos").glob("*.py"),
                 ROOT / "tests" / "test_acceptance.py"]
    read.update(attribute for path in importers
                for _, attribute in _package_names(path))
    read.update(attribute.split(".")[0] for _, attribute in _span_targets())
    unread = [name for name in exports if name not in read]
    assert not unread, f"exported, but only unit tests read: {unread}"


def test_no_module_imports_another_modules_private_names():
    # a name with a leading underscore is read only in its own module:
    # what two modules share is public in the one that defines it
    crossings = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level:
                private = [alias.name for alias in node.names
                           if alias.name.startswith("_")]
                if private:
                    crossings.setdefault(path.stem, []).extend(private)
    assert not crossings, \
        f"private names imported across modules: {crossings}"


def _opens_to_write(node) -> bool:
    """An `open(...)` call whose mode writes, appends or creates (a mode
    that is not a literal counts as writing)."""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "open"):
        return False
    modes = node.args[1:2] + [k.value for k in node.keywords
                              if k.arg == "mode"]
    return any(not isinstance(m, ast.Constant)
               or set(str(m.value)) & set("wax") for m in modes)


def test_one_module_writes_every_file():
    # the file formats live in one place: transit's serialization section
    writers = {path.stem for path in sorted(PACKAGE.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text()))
               if _opens_to_write(node)}
    assert writers == {"transit"}
