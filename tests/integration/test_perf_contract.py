"""The names the perf ledger leans on resolve, and no two are one object.

``perf/`` sits outside the tier-1 test paths: its workloads and probes
import public names from ``repro``, and its tracer patches a list of
them (``perf/tracing.py``'s ``TARGETS``) by rewrapping every module
attribute that holds an identical object. A source change that removes
or renames one of those names, changes a signature a perf call relies
on, or makes two targets the same function (so one call would be timed
under two spans), breaks the ledger without failing a tier-1 test. This
file reads the three perf modules with ``ast`` -- nothing under
``perf/`` is imported -- and checks them against the package.
"""

import ast
import importlib
import inspect
import pathlib

import pytest

PERF = pathlib.Path(__file__).resolve().parents[2] / "perf"


def _targets():
    """``(module, dotted attribute)`` of every ``TARGETS`` row."""
    tree = ast.parse((PERF / "tracing.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.AnnAssign) and node.target.id == "TARGETS":
            return [(row[0], row[1]) for row in ast.literal_eval(node.value)]
    raise AssertionError("perf/tracing.py defines no TARGETS")


def _imported(name):
    """``(module, name)`` of every ``from repro... import name`` in
    ``perf/<name>``."""
    tree = ast.parse((PERF / name).read_text())
    return [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.module or "").split(".")[0] == "repro"
        for alias in node.names
    ]


def _resolve(module, dotted):
    owner = importlib.import_module(module)
    for part in dotted.split("."):
        owner = getattr(owner, part)
    return owner


TARGETS = _targets()
IMPORTS = sorted(set(_imported("workloads.py") + _imported("probes.py")))


def test_the_perf_modules_name_something():
    assert len(TARGETS) >= 20
    assert len(IMPORTS) >= 20


@pytest.mark.parametrize("module, dotted", TARGETS, ids=lambda v: v)
def test_every_traced_target_resolves(module, dotted):
    assert callable(_resolve(module, dotted))


@pytest.mark.parametrize("module, name", IMPORTS, ids=lambda v: v)
def test_every_imported_name_resolves(module, name):
    _resolve(module, name)


def _calls():
    """``(file, line, module, name, positional count, keywords)`` of every
    call ``perf/workloads.py`` and ``perf/probes.py`` make to a name they
    imported from ``repro`` (calls that unpack ``*``/``**`` are skipped)."""
    for name in ("workloads.py", "probes.py"):
        origin = {imported: module for module, imported in _imported(name)}
        for node in ast.walk(ast.parse((PERF / name).read_text())):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
                continue
            if node.func.id not in origin:
                continue
            keywords = [kw.arg for kw in node.keywords]
            if None in keywords or any(
                isinstance(arg, ast.Starred) for arg in node.args
            ):
                continue
            yield (
                name, node.lineno, origin[node.func.id], node.func.id,
                len(node.args), keywords,
            )


def test_every_call_binds_to_the_signature():
    calls = list(_calls())
    assert len(calls) >= 20
    for name, line, module, callee, positional, keywords in calls:
        signature = inspect.signature(_resolve(module, callee))
        try:
            signature.bind(*[None] * positional, **dict.fromkeys(keywords))
        except TypeError as exc:
            pytest.fail(f"perf/{name}:{line}: {callee}(...): {exc}")


def test_no_two_targets_are_one_function():
    seen = {}
    for module, dotted in TARGETS:
        target = _resolve(module, dotted)
        other = seen.setdefault(id(target), (module, dotted))
        assert other == (module, dotted), (
            f"{module}.{dotted} is {other[0]}.{other[1]}: the tracer would "
            f"time every call to it twice"
        )
