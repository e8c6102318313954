"""What importing repro costs a process, file by file.

Every repro process (the CLI, each in-process server, a pooled server
and the workers it forks) imports ``repro``, ``repro.cli`` and
``repro.service``, and most never run a portfolio query.  The test
starts a fresh interpreter, imports those three under ``tracemalloc``
and fails when any file under ``src/repro`` has allocated more than
:data:`FILE_BOUND`: a module that builds a large table at import makes
every process carry it.  The algebraic rung's GF(2^16) exp/log tables
(about 5 MB) are the case in point: they are built the first time a
portfolio query reaches that rung, which the same interpreter checks.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

#: Most any one repro file may hold allocated after the imports.
FILE_BOUND = 512 * 1024

#: Run in the fresh interpreter; prints one JSON object of per-file
#: traced sizes (bytes, files under src/repro) at three points.
SCRIPT = r"""
import json
import os
import sys
import tracemalloc
from pathlib import Path

tracemalloc.start()

import repro
import repro.cli
import repro.service

package = repro.__path__[0]


def by_file():
    stats = tracemalloc.take_snapshot().statistics("filename")
    return {
        Path(stat.traceback[0].filename).relative_to(package).as_posix():
            stat.size
        for stat in stats
        if stat.traceback[0].filename.startswith(package + os.sep)
    }


report = {"package": package, "import": by_file()}

from repro.engine import QueryEngine
from repro.graphs.dbgraph import DbGraph

# benchmarks/bench_portfolio.py::probabilistic_gadget: the (aa)* walk
# 0-1-2-3-1-2-4 revisits vertices and the only simple route 0-1-2-4 is
# odd; the two padding vertices keep the walk probe from certifying,
# so a portfolio query runs both randomized rungs.
graph = DbGraph()
for u, label, v in [
    (0, "a", 1), (1, "a", 2), (2, "a", 3), (3, "a", 1), (2, "a", 4),
]:
    graph.add_edge(u, label, v)
graph.add_vertex(5)
graph.add_vertex(6)
engine = QueryEngine(graph, result_cache_size=0)


def answer(result):
    return {
        "found": result.found,
        "strategy": result.strategy,
        "confidence": result.confidence,
        "failure_bound": result.failure_bound,
    }


report["query_answer"] = answer(engine.query("(aa)*", 0, 4))
report["query"] = by_file()
report["portfolio_answer"] = answer(
    engine.query("(aa)*", 0, 4, portfolio=True)
)
report["portfolio"] = by_file()
json.dump(report, sys.stdout)
"""


@pytest.fixture(scope="module")
def report():
    path = os.environ.get("PYTHONPATH")
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(
            [str(SRC)] + ([path] if path else [])
        ),
    )
    completed = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return json.loads(completed.stdout)


def _over_bound(sizes):
    return {name: size for name, size in sizes.items() if size > FILE_BOUND}


def test_the_fresh_interpreter_imports_this_checkout(report):
    assert Path(report["package"]) == SRC / "repro"


def test_no_repro_file_allocates_more_than_the_bound_at_import(report):
    assert _over_bound(report["import"]) == {}


def test_a_query_without_the_portfolio_builds_no_field_tables(report):
    assert report["query_answer"] == {
        "found": False,
        "strategy": "exact-backtracking",
        "confidence": "certified",
        "failure_bound": None,
    }
    assert report["query"].get("algorithms/algebraic.py", 0) <= FILE_BOUND


def test_the_algebraic_rung_builds_the_field_tables_on_first_use(report):
    answer = report["portfolio_answer"]
    assert answer["found"] is False
    assert answer["strategy"] == "portfolio:algebraic"
    assert answer["confidence"] == "probabilistic"
    assert answer["failure_bound"] == pytest.approx(1e-6)
    # 131,070 + 65,536 tuple slots over 130,814 distinct ints.
    assert report["portfolio"]["algorithms/algebraic.py"] > 4 * 1024 * 1024
