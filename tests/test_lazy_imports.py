"""Import budgets and the lazy package surface.

A fleet boots as fast as its import chains are short: the router /
runner process, the cache server and ``repro-covidkg analyze`` must not
load numpy or the engines they never call.  The budget is asserted on
``sys.modules`` in a fresh interpreter (never on wall-clock — the box is
shared), and the four lazily exporting packages must still present the
surface their eager ``__init__``s did.
"""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent

#: Nothing under these may load in a process that only routes,
#: coordinates or lints.
HEAVY = (
    "numpy", "repro.api", "repro.search", "repro.kg", "repro.kgql",
    "repro.docstore", "repro.serve", "repro.classify", "repro.neural",
    "repro.ml", "repro.embeddings", "repro.corpus", "repro.tables",
    "repro.text", "repro.ingest", "repro.gateway.server",
    "repro.gateway.routes",
)

BLOCK_NUMPY = """
    import sys

    class NoNumpy:
        def find_spec(self, name, path=None, target=None):
            if name.split(".")[0] == "numpy":
                raise ImportError("numpy is blocked in this test")

    sys.meta_path.insert(0, NoNumpy())
"""


def _python(code: str) -> str:
    """Run ``code`` in a fresh interpreter at the repo root."""
    result = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True, text=True, timeout=120, cwd=REPO,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout


def _loaded(statement: str) -> list[str]:
    out = _python(f"""
        import sys
        {statement}
        print("\\n".join(sorted(sys.modules)))
    """)
    return out.split()


def test_import_repro_loads_no_subpackage():
    extra = [name for name in _loaded("import repro")
             if name.startswith("repro.") and name != "repro._lazy"]
    assert extra == []


def test_router_process_stays_inside_its_import_budget():
    loaded = _loaded("import repro.cli, repro.cluster.runner")
    offenders = [name for name in loaded
                 if any(name == prefix or name.startswith(prefix + ".")
                        for prefix in HEAVY)]
    assert offenders == [], (
        "the router / runner process imports engine code it never "
        f"runs: {offenders}")


def test_thin_commands_run_without_numpy():
    out = _python(BLOCK_NUMPY + """
    import repro.cli

    repro.cli.build_parser()
    try:
        repro.cli.main(["--help"])
    except SystemExit as exc:
        assert exc.code == 0
    assert repro.cli.main(["analyze", "--paths",
                           "src/repro/cluster"]) == 0
    assert "numpy" not in sys.modules
    """)
    assert "usage: repro-covidkg" in out
    assert "analyze: clean (" in out
    assert " locks, " in out


@pytest.mark.parametrize("chain", [
    "import repro.gateway.server, repro.ingest.engine",  # a replica
    "import repro.cli, repro.cluster.runner",  # the router
])
def test_serving_processes_do_not_import_their_own_linter(chain):
    loaded = [name for name in _loaded(chain)
              if name.startswith("repro.analysis")]
    assert loaded == []


# -- the lazy surface is the old surface ------------------------------------

SURFACE = {
    "repro": {
        "CovidKG": "repro.api.system",
        "CovidKGConfig": "repro.api.system",
        "CorpusGenerator": "repro.corpus.generator",
        "GeneratorConfig": "repro.corpus.generator",
        "KnowledgeGraph": "repro.kg.graph",
        "QueryService": "repro.serve.service",
        "ServeConfig": "repro.serve.service",
        "seed_covid_graph": "repro.kg.ontology",
    },
    "repro.gateway": {
        "ERROR_STATUS": "repro.gateway.routes",
        "BackgroundGateway": "repro.gateway.server",
        "ClientResponse": "repro.gateway.client",
        "Gateway": "repro.gateway.server",
        "GatewayClient": "repro.gateway.client",
        "GatewayConfig": "repro.serve.service",
        "Request": "repro.gateway.http",
        "Response": "repro.gateway.http",
        "all_error_classes": "repro.gateway.routes",
        "build_response": "repro.gateway.http",
        "map_error": "repro.gateway.routes",
        "parse_request_head": "repro.gateway.http",
        "render_prometheus": "repro.gateway.routes",
        "run_gateway": "repro.gateway.server",
        "serialize_served": "repro.gateway.routes",
    },
    "repro.cluster": {
        "HashRing": "repro.cluster.ring",
        "Router": "repro.cluster.router",
        "RouterConfig": "repro.cluster.router",
        "ReplicaSpec": "repro.cluster.router",
        "SharedCacheClient": "repro.cluster.cacheclient",
        "SharedCacheServer": "repro.cluster.cacheserver",
        "ClusterRunner": "repro.cluster.runner",
        "ClusterConfig": "repro.cluster.runner",
    },
    "repro.analysis": {
        "Finding": "repro.analysis.lint",
        "default_rules": "repro.analysis.rules",
    },
}


@pytest.mark.parametrize("package_name", sorted(SURFACE))
def test_lazy_package_exports_what_it_always_did(package_name):
    package = importlib.import_module(package_name)
    homes = SURFACE[package_name]
    exported = set(package.__all__) - {"__version__"}
    assert exported == set(homes)
    for name, home in homes.items():
        assert getattr(package, name) is \
            getattr(importlib.import_module(home), name), name
    assert set(dir(package)) >= set(package.__all__)
    namespace: dict = {}
    exec(f"from {package_name} import *", namespace)
    assert set(namespace) >= set(package.__all__)
    missing = "no_such_name"
    with pytest.raises(AttributeError, match=package_name):
        getattr(package, missing)


def test_version_is_a_plain_attribute_and_quickstart_imports():
    import repro

    assert vars(repro)["__version__"] == "1.0.0"
    quickstart = (REPO / "examples" / "quickstart.py").read_text("utf-8")
    lines = [line for line in quickstart.splitlines()
             if line.startswith("from repro import ")]
    assert lines
    namespace: dict = {}
    exec("\n".join(lines), namespace)
    assert namespace["CovidKG"] is repro.CovidKG
