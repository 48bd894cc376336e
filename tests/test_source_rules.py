"""Source rules: every run is a pure function of its seed, and the
package layers point one way.

The paper's tables regenerate byte for byte only if no code path
consults ambient state (DESIGN.md §7). Each rule below is one AST
predicate over one parsed file; ``test_tree_obeys_rule[<rule>]``
asserts it over every ``.py`` file under ``src/repro``, ``tests``,
``benchmarks`` and ``examples``, and lists ``path:line`` for each hit.
``test_rule_case`` pins each rule on small snippets at pretend paths.

DET001–006 ban ambient randomness, wall clocks, entropy UUIDs, hash-
ordered set iteration and environment reads. ARCH001–004 keep imports
pointing down the layer stack, the AAS roster a black box to its
observers, wildcard imports out, and process machinery inside
``repro/fleet/``. API001–002 make observer layers take their randomness
as parameters. OBS001 keeps ``print()`` out of library code, and OBS003
confines the host probes to ``repro/obs/walltime.py``.

REACH001 is the one rule over the whole tree
(``test_every_public_definition_is_reached``): every public function,
class and method in ``src/repro`` is named by the package or an entry
point (``benchmarks``, ``perfbench``, ``examples``) outside its own
body. A definition that only tests call is deleted with its tests.
``test_reach_case`` pins it on small multi-file snippets.

The one exemption mechanism is :data:`ALLOWLIST`: a rule waived for one
exact repo-relative path, with its reason; a REACH001 entry waives one
definition, ``path::Qual.name``. ``test_allowlist_entry_is_used`` fails
on an entry that suppresses nothing. The invariants that span
modules (RNG state between studies, the fleet's pickle surface, obs
staying write-only) are runtime tests instead (DESIGN.md §12).
"""

from __future__ import annotations

import ast
import re
import textwrap
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
SCANNED_DIRS = ("src/repro", "tests", "benchmarks", "examples")
#: where a name reaches a ``src/repro`` definition: the package and every
#: entry point, but not the tests
REACHING_DIRS = ("src/repro", "benchmarks", "perfbench", "examples")

#: ``(rule, repo-relative path) -> reason``; each entry must suppress a hit
ALLOWLIST: dict[tuple[str, str], str] = {
    ("DET002", "src/repro/util/rng.py"): (
        "the seeding shim: derive_rng builds every generator from an "
        "explicit SeedSequence"
    ),
    ("DET003", "src/repro/obs/walltime.py"): (
        "opt-in wall-clock span durations; canonical_lines() strips them "
        "before any determinism comparison"
    ),
    ("OBS003", "src/repro/obs/walltime.py"): (
        "the one module that imports the host probes (time, resource)"
    ),
    ("DET006", "src/repro/core/config.py"): (
        "the sanctioned home for environment reads: REPRO_WORKERS scales "
        "fan-out only, merged fleet output is identical for any value"
    ),
    ("DET006", "tests/childenv.py"): (
        "hands the runner's own import path to child processes; it "
        "configures nothing"
    ),
    ("OBS001", "src/repro/cli.py"): "command-line front end",
    ("OBS001", "src/repro/obs/cli.py"): "command-line front end",
    ("OBS001", "src/repro/obs/report.py"): "the --verbose console span reporter",
    ("REACH001", "src/repro/aas/base.py::AccountAutomationService.cancel_customer"): (
        "the collusion and reciprocity twin-world suites cancel a customer in both "
        "worlds mid-run and compare the services' state"
    ),
    ("REACH001", "src/repro/core/study.py::Study.verify_signal_stability"): (
        "test_core_golden_digests.py pins its verdicts in the golden study digest"
    ),
    ("REACH001", "src/repro/detection/evaluation.py::ClassificationReport.f1"): (
        "ROADMAP item 3 emits attribution quality as trace gauges"
    ),
    ("REACH001", "src/repro/detection/evaluation.py::evaluate_classifier"): (
        "ROADMAP item 3 emits attribution precision and recall as trace gauges"
    ),
    ("REACH001", "src/repro/detection/evaluation.py::default_variant_map"): (
        "ROADMAP item 3 labels its attribution gauges by service through this map"
    ),
    ("REACH001", "src/repro/obs/metrics.py::MetricsRegistry.get_counter_value"): (
        "test_core_golden_digests.py and test_obs_determinism.py read counters to "
        "compare runs"
    ),
    ("REACH001", "src/repro/platform/api.py::PublicGraphAPI"): (
        "ROADMAP item 10: the API surface changes with perfbench, which traces "
        "_BaseAPI.submit_batch"
    ),
    ("REACH001", "src/repro/platform/api.py::PrivateMobileAPI"): (
        "ROADMAP item 10: the API surface changes with perfbench; "
        "test_platform_policy_batch_equivalence.py drives it in both worlds"
    ),
    ("REACH001", "src/repro/platform/clock.py::SimClock.pending_callbacks"): (
        "test_platform_policy_batch_equivalence.py compares the pending callbacks "
        "of the batched and the scalar platform"
    ),
    ("REACH001", "src/repro/platform/notifications.py::NotificationCenter.delivered_total"): (
        "test_determinism.py compares it between two same-seed runs"
    ),
}

#: Layer ranks; imports must point at strictly lower ranks (same layer is
#: always fine). Same-rank siblings (e.g. detection/honeypot) are
#: independent by construction and may not import each other. Anything
#: not in the table (``repro.cli``, the package root) ranks above every
#: layer.
LAYER_RANK: dict[str, int] = {
    "util": 0,
    "netsim": 0,
    "obs": 1,
    "platform": 2,
    "behavior": 3,
    "aas": 4,
    "honeypot": 5,
    "detection": 5,
    "analysis": 6,
    "interventions": 6,
    "core": 7,
    "fleet": 8,
}
_TOP_RANK = 99

_OBSERVER_LAYERS = frozenset({"analysis", "detection", "interventions"})

#: ``numpy.random`` attributes that are deterministic given their arguments
_SAFE_NP_RANDOM = frozenset(
    {
        "Generator",
        "SeedSequence",
        "BitGenerator",
        "PCG64",
        "PCG64DXSM",
        "MT19937",
        "Philox",
        "SFC64",
    }
)
_TIME_FUNCTIONS = frozenset(
    {"time", "time_ns", "monotonic", "monotonic_ns", "perf_counter", "perf_counter_ns"}
)
_DATE_CALLS = ("datetime.now", "datetime.today", "datetime.utcnow", "date.today")
_WALL_CLOCK_CALLS = frozenset(
    {f"time.{name}" for name in _TIME_FUNCTIONS}
    | set(_DATE_CALLS)
    | {f"datetime.{name}" for name in _DATE_CALLS}
)
_GENERATOR_FACTORIES = frozenset(
    {
        "derive_rng",
        "SeedSequenceFactory",
        "np.random.default_rng",
        "numpy.random.default_rng",
        "default_rng",
    }
)
_RNG_PARAMS = frozenset({"rng", "seeds", "seed_factory"})
_FLEET_ONLY_ROOTS = frozenset(
    {"multiprocessing", "pickle", "concurrent", "tempfile", "shutil", "gc"}
)
_HOST_PROBE_ROOTS = frozenset({"time", "resource"})


@dataclass(frozen=True)
class Source:
    """One parsed file and where it sits in the repo."""

    path: str
    #: every node of the file's AST, walked once for all fourteen rules
    nodes: list[ast.AST]

    @classmethod
    def parse(cls, path: str, text: str) -> Source:
        return cls(path, list(ast.walk(ast.parse(text, filename=path))))

    @property
    def in_package(self) -> bool:
        return self.path.startswith("src/repro/")

    @property
    def layer(self) -> str | None:
        """``'platform'`` for ``src/repro/platform/...``; ``None`` for
        top-level modules (``repro.cli``) and files outside the package."""
        parts = self.path.split("/")
        return parts[2] if self.in_package and len(parts) > 3 else None


def _dotted(node: ast.expr) -> str | None:
    """``a.b.c`` for an attribute chain rooted at a name, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _imports(src: Source) -> Iterator[tuple[ast.stmt, str]]:
    """``(stmt, module)`` for every ``import m`` and absolute ``from m import``."""
    for node in src.nodes:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            yield node, node.module


def _from_imports(src: Source, module: str) -> Iterator[tuple[ast.ImportFrom, str]]:
    """``(stmt, name)`` for each name of ``from <module> import ...``."""
    for node in src.nodes:
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module == module:
            for alias in node.names:
                yield node, alias.name


def _calls(src: Source) -> Iterator[tuple[ast.Call, str]]:
    """``(call, dotted callee)`` for every call of a plain name chain."""
    for node in src.nodes:
        if isinstance(node, ast.Call):
            name = _dotted(node.func)
            if name is not None:
                yield node, name


def _repro_imports(src: Source) -> Iterator[tuple[ast.stmt, str]]:
    for node, module in _imports(src):
        if module == "repro" or module.startswith("repro."):
            yield node, module


def det001_stdlib_random(src: Source) -> Iterator[ast.AST]:
    """The process-global ``random`` module; draw from repro.util.rng."""
    for node in src.nodes:
        if isinstance(node, ast.Import):
            if any(a.name == "random" or a.name.startswith("random.") for a in node.names):
                yield node
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module == "random":
            yield node


def det002_numpy_global_random(src: Source) -> Iterator[ast.AST]:
    """``np.random.<f>()`` other than explicitly seeded types."""
    for node, name in _calls(src):
        parts = name.split(".")
        if (
            len(parts) == 3
            and parts[0] in ("np", "numpy")
            and parts[1] == "random"
            and parts[2] not in _SAFE_NP_RANDOM
        ):
            yield node
    for node, name in _from_imports(src, "numpy.random"):
        if name not in _SAFE_NP_RANDOM and name != "*":
            yield node


def det003_wall_clock(src: Source) -> Iterator[ast.AST]:
    """Host-clock reads; simulated time is ``SimClock.now`` ticks."""
    for node, name in _calls(src):
        if name in _WALL_CLOCK_CALLS:
            yield node
    for node, name in _from_imports(src, "time"):
        if name in _TIME_FUNCTIONS:
            yield node


def det004_entropy_uuid(src: Source) -> Iterator[ast.AST]:
    """``uuid1``/``uuid4``; derive ids from the seed."""
    for node, name in _calls(src):
        if name in ("uuid.uuid1", "uuid.uuid4", "uuid1", "uuid4"):
            yield node
    for node, name in _from_imports(src, "uuid"):
        if name in ("uuid1", "uuid4"):
            yield node


def _is_set_expr(node: ast.expr) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    )


def det005_set_iteration(src: Source) -> Iterator[ast.AST]:
    """Iterating a fresh set leaks PYTHONHASHSEED order; sort it first."""
    for node in src.nodes:
        iters: list[ast.expr] = []
        if isinstance(node, (ast.For, ast.AsyncFor)):
            iters.append(node.iter)
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
            iters.extend(gen.iter for gen in node.generators)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("list", "tuple")
            and len(node.args) == 1
            and not node.keywords
        ):
            iters.append(node.args[0])
        yield from (candidate for candidate in iters if _is_set_expr(candidate))


def det006_environ_read(src: Source) -> Iterator[ast.AST]:
    """Environment reads; every knob enters through StudyConfig."""
    for node in src.nodes:
        if isinstance(node, ast.Attribute) and _dotted(node) == "os.environ":
            yield node
    for node, name in _calls(src):
        if name == "os.getenv":
            yield node
    for node, name in _from_imports(src, "os"):
        if name in ("environ", "getenv"):
            yield node


def arch001_layering(src: Source) -> Iterator[ast.AST]:
    """Cross-layer imports point strictly down :data:`LAYER_RANK`."""
    if src.layer not in LAYER_RANK:
        return
    for node, module in _repro_imports(src):
        parts = module.split(".")
        target = parts[1] if len(parts) > 1 else ""
        if target != src.layer and LAYER_RANK.get(target, _TOP_RANK) >= LAYER_RANK[src.layer]:
            yield node


def arch002_service_internals(src: Source) -> Iterator[ast.AST]:
    """Observers use the ``repro.aas.services`` package API, not a service's module."""
    if src.layer in _OBSERVER_LAYERS:
        for node, module in _repro_imports(src):
            if module.startswith("repro.aas.services."):
                yield node


def arch003_star_import(src: Source) -> Iterator[ast.AST]:
    """``from repro... import *`` hides a layer's dependencies."""
    for node in src.nodes:
        if isinstance(node, ast.ImportFrom) and any(a.name == "*" for a in node.names):
            module = node.module or ""
            if node.level > 0 or module == "repro" or module.startswith("repro."):
                yield node


def arch004_fleet_machinery(src: Source) -> Iterator[ast.AST]:
    """Process pools, pickling, scratch space and the collector belong to fleet."""
    if src.in_package and src.layer != "fleet":
        for node, module in _imports(src):
            if module.split(".")[0] in _FLEET_ONLY_ROOTS:
                yield node


def api001_rng_injection(src: Source) -> Iterator[ast.AST]:
    """Observer layers take an ``rng``/``seeds`` parameter, never mint one."""
    if src.layer in _OBSERVER_LAYERS:
        for node, name in _calls(src):
            if name in _GENERATOR_FACTORIES:
                yield node


def api002_rng_default(src: Source) -> Iterator[ast.AST]:
    """``rng``/``seeds`` parameters default only to ``None``."""
    for node in src.nodes:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        positional = node.args.posonlyargs + node.args.args
        defaulted = positional[len(positional) - len(node.args.defaults) :]
        pairs = list(zip(defaulted, node.args.defaults))
        pairs += [
            (arg, default)
            for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults)
            if default is not None
        ]
        for arg, default in pairs:
            if arg.arg in _RNG_PARAMS and not (
                isinstance(default, ast.Constant) and default.value is None
            ):
                yield default


def obs001_print(src: Source) -> Iterator[ast.AST]:
    """Library code emits spans and metrics; only the CLIs print."""
    if src.in_package:
        for node in src.nodes:
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "print"
            ):
                yield node


def obs003_host_probe(src: Source) -> Iterator[ast.AST]:
    """``time``/``resource`` imports, anywhere in the repo."""
    for node, module in _imports(src):
        if module.split(".")[0] in _HOST_PROBE_ROOTS:
            yield node


RULES: dict[str, Callable[[Source], Iterator[ast.AST]]] = {
    "DET001": det001_stdlib_random,
    "DET002": det002_numpy_global_random,
    "DET003": det003_wall_clock,
    "DET004": det004_entropy_uuid,
    "DET005": det005_set_iteration,
    "DET006": det006_environ_read,
    "ARCH001": arch001_layering,
    "ARCH002": arch002_service_internals,
    "ARCH003": arch003_star_import,
    "ARCH004": arch004_fleet_machinery,
    "API001": api001_rng_injection,
    "API002": api002_rng_default,
    "OBS001": obs001_print,
    "OBS003": obs003_host_probe,
}


def hits(rule: str, src: Source) -> list[str]:
    """``path:line`` of each node ``rule`` flags in ``src``, allowlist aside."""
    return [f"{src.path}:{getattr(node, 'lineno', 1)}" for node in RULES[rule](src)]


def violations(rule: str, src: Source) -> list[str]:
    return [] if (rule, src.path) in ALLOWLIST else hits(rule, src)


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_IDENTIFIER = re.compile(r"[A-Za-z_]\w*")
#: a string constant that names code: a dotted path, ``module:Qual.name``
#: target or bare identifier — no spaces, so English prose never matches
_REFERENCE_STRING = re.compile(r"[\w.:+-]+")


def _under(path: str, tops: tuple[str, ...]) -> bool:
    return path.startswith(tuple(f"{top}/" for top in tops))


def _public_definitions(
    src: Source,
) -> Iterator[tuple[str, ast.FunctionDef | ast.AsyncFunctionDef | ast.ClassDef]]:
    """``(qualified name, node)`` of each public top-level function and
    class, and each public method of a top-level class."""
    for node in src.nodes[0].body:
        if not isinstance(node, _DEFS):
            continue
        if not node.name.startswith("_"):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, _DEFS[:2]) and not member.name.startswith("_"):
                    yield f"{node.name}.{member.name}", member


def _references(src: Source) -> Iterator[tuple[str, int]]:
    """``(name, line)`` for each name the code of ``src`` uses: names,
    attributes, imported names, keyword arguments and the identifiers in
    string constants that read as references (:data:`_REFERENCE_STRING`:
    a whole string of word characters, dots, colons, plus and minus
    signs). Prose in a string does not reach — neither does an f-string's
    text around its fields. Comments and docstrings (any bare string
    statement) are not code, nor are a package ``__init__``'s re-exports and
    ``__all__``."""
    skipped: set[int] = set()
    for node in src.nodes:
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            skipped.add(id(node.value))
    if src.path.endswith("/__init__.py"):
        for node in src.nodes:
            if isinstance(node, ast.ImportFrom):
                skipped.update(id(alias) for alias in node.names)
            elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                    skipped.update(id(n) for n in ast.walk(node))
    for node in src.nodes:
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            for part in node.name.split("."):
                yield part, node.lineno
        elif isinstance(node, ast.keyword) and node.arg:
            yield node.arg, node.lineno
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and _REFERENCE_STRING.fullmatch(node.value)
        ):
            for word in _IDENTIFIER.findall(node.value):
                yield word, node.lineno


def reach001_unreached(sources: list[Source]) -> dict[str, str]:
    """Public ``src/repro`` definitions that nothing outside their own
    body names, as ``path::Qual.name -> path:line``. Only files under
    :data:`REACHING_DIRS` reach; a test does not."""
    uses: dict[str, list[tuple[str, int]]] = {}
    for src in sources:
        if _under(src.path, REACHING_DIRS):
            for name, line in _references(src):
                uses.setdefault(name, []).append((src.path, line))
    unreached: dict[str, str] = {}
    for src in sources:
        if not src.in_package:
            continue
        for qualname, node in _public_definitions(src):
            first = min([node.lineno, *(d.lineno for d in node.decorator_list)])
            if all(
                path == src.path and first <= line <= node.end_lineno
                for path, line in uses.get(node.name, [])
            ):
                unreached[f"{src.path}::{qualname}"] = f"{src.path}:{node.lineno} {qualname}"
    return unreached


@pytest.fixture(scope="module")
def tree() -> list[Source]:
    """Every scanned or reaching file, parsed once."""
    return [
        Source.parse(path.relative_to(REPO_ROOT).as_posix(), path.read_text(encoding="utf-8"))
        for top in dict.fromkeys(SCANNED_DIRS + REACHING_DIRS)
        for path in sorted((REPO_ROOT / top).rglob("*.py"))
    ]


@pytest.fixture(scope="module")
def scanned(tree: list[Source]) -> list[Source]:
    """The files the per-file rules check."""
    return [src for src in tree if _under(src.path, SCANNED_DIRS)]


@pytest.fixture(scope="module")
def unreached(tree: list[Source]) -> dict[str, str]:
    return reach001_unreached(tree)


@pytest.mark.parametrize("rule", list(RULES))
def test_tree_obeys_rule(rule: str, scanned: list[Source]) -> None:
    found = [hit for src in scanned for hit in violations(rule, src)]
    assert not found, f"{rule} ({RULES[rule].__doc__}):\n" + "\n".join(found)


def test_every_public_definition_is_reached(unreached: dict[str, str]) -> None:
    found = [hit for key, hit in unreached.items() if ("REACH001", key) not in ALLOWLIST]
    assert not found, (
        "REACH001 (no entry point, and no other code, names these; delete them with "
        "their tests):\n" + "\n".join(found)
    )


@pytest.mark.parametrize("rule, path", sorted(ALLOWLIST))
def test_allowlist_entry_is_used(
    rule: str, path: str, scanned: list[Source], unreached: dict[str, str]
) -> None:
    if rule == "REACH001":
        assert path in unreached, f"{path} is reached; drop its entry"
        return
    sources = [src for src in scanned if src.path == path]
    assert sources, f"allowlisted path {path} is not in the scanned tree"
    assert hits(rule, sources[0]), f"{rule} finds nothing in {path}; drop its entry"


#: ``(rule, pretend path, snippet, fires?)``; the path decides the layer
#: and whether the allowlist applies
CASES: list[tuple[str, str, str, bool]] = [
    ("DET001", "src/repro/aas/sample.py", "import random", True),
    ("DET001", "src/repro/aas/sample.py", "from random import choice", True),
    ("DET001", "src/repro/aas/sample.py", "import randomness_toolkit", False),
    ("DET001", "src/repro/util/rng.py", "import random", True),
    ("DET001", "src/repro/obs/walltime.py", "import random", True),
    ("DET002", "src/repro/aas/sample.py", "import numpy as np\nnp.random.seed(1)", True),
    ("DET002", "src/repro/aas/sample.py", "import numpy as np\nx = np.random.default_rng()", True),
    ("DET002", "src/repro/aas/sample.py", "from numpy.random import default_rng", True),
    ("DET002", "src/repro/aas/sample.py", """
        import numpy as np
        from numpy.random import Generator

        def draw(rng: np.random.Generator) -> float:
            seq = np.random.SeedSequence([1, 2])
            return float(rng.random())
    """, False),
    ("DET002", "src/repro/util/rng.py", "import numpy as np\nx = np.random.default_rng(3)", False),
    ("DET003", "src/repro/aas/sample.py", "import time\nt = time.time()", True),
    ("DET003", "src/repro/aas/sample.py", "import datetime\nd = datetime.datetime.now()", True),
    ("DET003", "src/repro/aas/sample.py", "from datetime import datetime\nd = datetime.utcnow()",
     True),
    ("DET003", "src/repro/aas/sample.py", "from time import perf_counter", True),
    ("DET003", "src/repro/aas/sample.py", """
        def elapsed(clock, start):
            return clock.now - start

        def local(obj):
            return obj.time()
    """, False),
    ("DET003", "src/repro/platform/clock.py", "import datetime\nd = datetime.datetime.now()",
     True),
    ("DET003", "src/repro/obs/walltime.py", "import time\nt = time.perf_counter()", False),
    ("DET003", "src/repro/obs/metrics.py", "import time\nt = time.perf_counter()", True),
    ("DET003", "tests/test_sample.py", "import time\nt = time.perf_counter()", True),
    ("DET003", "src/repro/core/study.py", "import time\nt = time.perf_counter()", True),
    ("DET003", "src/repro/analysis/revenue.py", "import time\nt = time.perf_counter()", True),
    ("DET003", "src/repro/platform/actions.py", "import time\nt = time.perf_counter()", True),
    ("DET003", "src/repro/util/timeutils.py", "import time\nt = time.perf_counter()", True),
    ("DET004", "src/repro/aas/sample.py", "import uuid\nu = uuid.uuid4()", True),
    ("DET004", "src/repro/aas/sample.py", "from uuid import uuid4", True),
    ("DET004", "src/repro/aas/sample.py", """
        import uuid
        namespace = uuid.UUID("12345678-1234-5678-1234-567812345678")
        derived = uuid.uuid5(namespace, "label")
    """, False),
    ("DET005", "src/repro/aas/sample.py", "for x in set(items):\n    use(x)", True),
    ("DET005", "src/repro/aas/sample.py", "pairs = [f(x) for x in {1, 2, 3}]", True),
    ("DET005", "src/repro/aas/sample.py", "ordered = list(set(labels))", True),
    ("DET005", "src/repro/aas/sample.py", """
        for x in sorted(set(items)):
            use(x)
        unique = set(items)
        count = len(set(items))
    """, False),
    ("DET006", "src/repro/aas/sample.py", 'import os\nv = os.environ["X"]', True),
    ("DET006", "src/repro/aas/sample.py", 'import os\nv = os.getenv("X")', True),
    ("DET006", "src/repro/aas/sample.py", "from os import environ", True),
    ("DET006", "src/repro/core/config.py", 'import os\nv = os.getenv("X")', False),
    ("DET006", "tests/test_sample.py", 'import os\nv = os.getenv("X")', True),
    ("ARCH001", "src/repro/platform/sample.py",
     "from repro.detection.signals import learn_signature", True),
    ("ARCH001", "src/repro/behavior/sample.py", "import repro.detection.classifier", True),
    ("ARCH001", "src/repro/detection/sample.py", "from repro.honeypot import framework", True),
    ("ARCH001", "src/repro/aas/sample.py", """
        from repro.netsim.client import ClientEndpoint
        from repro.platform.models import AccountId
        from repro.util.rng import derive_rng
    """, False),
    ("ARCH001", "src/repro/core/sample.py", """
        from repro.detection.classifier import AASClassifier
        from repro.analysis.revenue import estimate
        from repro.interventions.policy import Policy
    """, False),
    ("ARCH001", "tests/test_sample.py", "from repro.detection.signals import learn_signature",
     False),
    ("ARCH002", "src/repro/analysis/sample.py",
     "from repro.aas.services.instalex import make_instalex", True),
    ("ARCH002", "src/repro/detection/sample.py",
     "from repro.aas.services.instalex import make_instalex", True),
    ("ARCH002", "src/repro/analysis/sample.py", "from repro.aas.services import make_instalex",
     False),
    ("ARCH002", "src/repro/honeypot/sample.py",
     "from repro.aas.services.instalex import make_instalex", False),
    ("ARCH003", "src/repro/aas/sample.py", "from repro.platform import *", True),
    ("ARCH003", "src/repro/aas/sample.py", "from repro.platform import InstagramPlatform", False),
    ("ARCH004", "src/repro/core/sample.py", "import multiprocessing", True),
    ("ARCH004", "src/repro/platform/sample.py", "import pickle", True),
    ("ARCH004", "src/repro/analysis/sample.py",
     "from concurrent.futures import ProcessPoolExecutor", True),
    ("ARCH004", "src/repro/obs/sample.py", "from multiprocessing.pool import Pool", True),
    ("ARCH004", "src/repro/interventions/sample.py", "import tempfile", True),
    ("ARCH004", "src/repro/core/sample.py", "from shutil import rmtree", True),
    ("ARCH004", "src/repro/core/sample.py", "import gc", True),
    ("ARCH004", "src/repro/platform/sample.py", "from gc import collect", True),
    ("ARCH004", "src/repro/fleet/runner.py", """
        import gc
        import pickle
        from concurrent.futures import ProcessPoolExecutor
        from multiprocessing import get_context
    """, False),
    ("ARCH004", "src/repro/fleet/store.py", "import tempfile\nimport shutil", False),
    ("ARCH004", "src/repro/core/sample.py", "import gcd\nimport pickleball\nimport shutilities",
     False),
    ("ARCH004", "tests/test_sample.py", "import multiprocessing", False),
    *(
        ("API001", f"src/repro/{layer}/sample.py", """
            from repro.util.rng import derive_rng

            def summarize(events):
                rng = derive_rng(0, "summary")
                return rng.permutation(len(events))
        """, True)
        for layer in sorted(_OBSERVER_LAYERS)
    ),
    ("API001", "src/repro/analysis/sample.py", """
        from repro.util.rng import SeedSequenceFactory

        def resample(events, seed):
            seeds = SeedSequenceFactory(seed)
            return seeds.get("resample")
    """, True),
    ("API001", "src/repro/analysis/sample.py", """
        def summarize(events, rng):
            return rng.permutation(len(events))
    """, False),
    ("API001", "src/repro/core/sample.py", """
        from repro.util.rng import SeedSequenceFactory

        def build(seed):
            return SeedSequenceFactory(seed)
    """, False),
    ("API002", "src/repro/aas/sample.py", "def f(events, rng=3):\n    return rng", True),
    ("API002", "src/repro/aas/sample.py", "def f(events, *, seeds=make()):\n    return seeds",
     True),
    ("API002", "src/repro/aas/sample.py", """
        def f(events, rng):
            return rng

        def g(events, rng=None):
            return rng
    """, False),
    ("OBS001", "src/repro/aas/sample.py", 'print("sweep done")', True),
    ("OBS001", "src/repro/core/sample.py", 'import sys\nprint("progress", file=sys.stderr)',
     True),
    ("OBS001", "src/repro/cli.py", 'print("report line")', False),
    ("OBS001", "src/repro/obs/cli.py", 'print("report line")', False),
    ("OBS001", "src/repro/obs/report.py", 'print("report line")', False),
    ("OBS001", "src/repro/obs/metrics.py", 'print("report line")', True),
    ("OBS001", "tests/test_sample.py", 'print("debugging")', False),
    ("OBS001", "scripts/loose_script.py", 'print("hello")', False),
    ("OBS001", "src/repro/aas/sample.py", """
        def report(printer):
            printer.print("fine: not the builtin")
            pprint(["also fine"])
    """, False),
    ("OBS003", "src/repro/aas/sample.py", "import time", True),
    ("OBS003", "src/repro/aas/sample.py", "import resource", True),
    ("OBS003", "src/repro/aas/sample.py", "import time as t", True),
    ("OBS003", "src/repro/aas/sample.py", "from time import monotonic", True),
    ("OBS003", "src/repro/aas/sample.py", "from resource import getrusage", True),
    ("OBS003", "scripts/loose_script.py", "import time", True),
    ("OBS003", "src/repro/obs/walltime.py", "import resource\nimport time", False),
    ("OBS003", "src/repro/aas/sample.py", """
        import timeit_helpers
        from mypkg.time import shim
        from . import time
    """, False),
]


def _case_ids() -> list[str]:
    seen: dict[tuple[str, bool], int] = {}
    ids = []
    for rule, _, _, fires in CASES:
        key = (rule, fires)
        seen[key] = seen.get(key, 0) + 1
        ids.append(f"{rule}-{'fires' if fires else 'silent'}-{seen[key]}")
    return ids


@pytest.mark.parametrize("rule, path, snippet, fires", CASES, ids=_case_ids())
def test_rule_case(rule: str, path: str, snippet: str, fires: bool) -> None:
    src = Source.parse(path, textwrap.dedent(snippet))
    assert bool(violations(rule, src)) == fires


_LONELY = "def helper():\n    return 1\n"

#: ``({pretend path: snippet}, fires?)`` for REACH001: does a public
#: ``src/repro`` definition in the snippets go unreached?
REACH_CASES: list[tuple[dict[str, str], bool]] = [
    ({"src/repro/aas/sample.py": _LONELY}, True),
    ({"src/repro/aas/sample.py": """
        def walk(n):
            return walk(n - 1) if n else 0
    """}, True),
    ({"src/repro/aas/sample.py": """
        class Node:
            def clone(self):
                return self.clone()
    """, "examples/demo.py": "from repro.aas.sample import Node"}, True),
    ({"src/repro/aas/sample.py": """
        class Node:
            '''A tree node; copy() duplicates it.'''

            def copy(self):
                return Node()
    """, "examples/demo.py": "from repro.aas.sample import Node"}, True),
    ({"src/repro/aas/sample.py": _LONELY,
      "examples/demo.py": '"""Call helper() for the answer."""'}, True),
    ({"src/repro/aas/sample.py": _LONELY, "examples/demo.py": """
        def main():
            '''helper() gives the answer.'''
    """}, True),
    ({"src/repro/aas/sample.py": _LONELY, "examples/demo.py": "answer = 1  # helper()"},
     True),
    ({"src/repro/aas/sample.py": _LONELY, "src/repro/aas/__init__.py": """
        from repro.aas.sample import helper

        __all__ = ["helper"]
    """}, True),
    ({"src/repro/aas/sample.py": _LONELY, "tests/test_sample.py": """
        from repro.aas.sample import helper

        assert helper() == 1
    """}, True),
    ({"src/repro/aas/sample.py": """
        class Cls:
            def meth(self):
                return 1
    """, "perfbench/tracer.py": 'TARGETS = ("repro.aas.sample:Cls.meth",)'}, False),
    ({"src/repro/aas/sample.py": """
        class Node:
            def clone(self):
                return Node()

            def copy(self):
                return self.clone()
    """, "examples/demo.py": "from repro.aas.sample import Node\nprint(Node().copy())"},
     False),
    ({"src/repro/aas/sample.py": _LONELY, "src/repro/aas/__init__.py": """
        from repro.aas.sample import helper

        ANSWER = helper()
    """}, False),
    ({"src/repro/aas/sample.py": _LONELY, "src/repro/core/user.py": """
        ANSWER = getattr(object, "helper", None)
    """}, False),
    ({"src/repro/aas/sample.py": _LONELY, "benchmarks/bench_sample.py": """
        from repro.aas import sample

        def bench_answer():
            assert sample.helper() == 1
    """}, False),
    ({"src/repro/aas/sample.py": "def _private():\n    return 1\n"}, False),
    ({"examples/demo.py": _LONELY, "perfbench/run.py": _LONELY}, False),
    ({"src/repro/aas/sample.py": """
        class Clock:
            def week(self):
                return 0
    """, "examples/demo.py": """
        from repro.aas.sample import Clock

        period = 3
        print(f"  week {period}", Clock())
    """}, True),
]


def _reach_case_ids() -> list[str]:
    seen = {True: 0, False: 0}
    ids = []
    for _, fires in REACH_CASES:
        seen[fires] += 1
        ids.append(f"REACH001-{'fires' if fires else 'silent'}-{seen[fires]}")
    return ids


@pytest.mark.parametrize("files, fires", REACH_CASES, ids=_reach_case_ids())
def test_reach_case(files: dict[str, str], fires: bool) -> None:
    sources = [Source.parse(path, textwrap.dedent(text)) for path, text in files.items()]
    assert bool(reach001_unreached(sources)) == fires
