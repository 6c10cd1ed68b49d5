"""bench/ owns its load generation: nothing comes from the program's own
generators or from benchmarks/, so no later change can move a number by
editing them."""

import ast
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
FORBIDDEN = ("repro.serve.loadgen", "repro.cluster.workload", "repro.core.audit", "benchmarks")
#: Names those modules export through their package ``__init__``.
FORBIDDEN_NAMES = {
    "ArrivalSchedule", "OpenLoopLoadGenerator", "OpenLoopResult", "RatePhase",
    "ZipfianPopulation", "ClusterWorkload", "run_cluster_workload",
}


def _imports(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, ()
        elif isinstance(node, ast.ImportFrom):
            yield node.module or "", tuple(alias.name for alias in node.names)


def test_bench_imports_no_generator_auditor_or_old_benchmark():
    files = [path for path in BENCH.rglob("*.py") if "tests" not in path.parts]
    assert len(files) >= 8
    for path in files:
        for module, imported in _imports(path):
            for banned in FORBIDDEN:
                assert module != banned and not module.startswith(banned + "."), (
                    f"{path.name} imports {module}"
                )
                assert not any(
                    f"{module}.{name}" == banned for name in imported
                ), f"{path.name} imports {banned}"
            assert not FORBIDDEN_NAMES & set(imported), f"{path.name}: {imported}"
