"""Every mahler name the benchmark in perfbench/ reaches still resolves.

perfbench/ is read as text here, never imported: the tracer's tables
are literals, and the workloads and the sanity check reach the package
as ``M``, with every submodule loaded.
"""

import ast
import importlib
import pathlib
import pkgutil
import re

import mahler

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def tracer_tables():
    tree = ast.parse((PERFBENCH / "tracing.py").read_text(encoding="utf-8"))
    return {node.targets[0].id: ast.literal_eval(node.value) for node in tree.body
            if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
            and node.targets[0].id in ("TIMED", "COUNTED", "RING_CLASSES")}


def test_every_name_the_benchmark_reaches_resolves():
    for info in pkgutil.iter_modules(mahler.__path__):
        importlib.import_module(f"mahler.{info.name}")
    tables = tracer_tables()
    assert sorted(tables) == ["COUNTED", "RING_CLASSES", "TIMED"]
    for mod, attr, *_ in tables["TIMED"] + tables["COUNTED"]:
        assert callable(getattr(getattr(mahler, mod), attr, None)), f"{mod}.{attr}"
    for name in tables["RING_CLASSES"]:
        assert isinstance(getattr(mahler.rings, name, None), type), name
    for script in ("workloads.py", "sanity.py"):
        chains = set(re.findall(r"\bM((?:\.[A-Za-z_]\w*)+)",
                                (PERFBENCH / script).read_text(encoding="utf-8")))
        assert chains, script
        for chain in sorted(chains):
            obj = mahler
            for attr in chain[1:].split("."):
                assert hasattr(obj, attr), f"{script}: M{chain}"
                obj = getattr(obj, attr)
