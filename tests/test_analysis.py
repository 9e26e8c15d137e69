"""Tests for reprolint (``repro.analysis``): the AST invariant linter.

Every checker gets the same four-way fixture treatment — bad code is
flagged, good code is clean, a justified pragma suppresses, and a stale
pragma is itself an error — plus rule-specific edge cases. The final
class asserts the linter dogfoods clean on the live tree via the real
CLI (``python -m repro.analysis src``).
"""

import json
import os
import subprocess
import sys

import pytest

from repro.analysis import Finding, all_rules, known_codes, lint_source
from repro.analysis.reporting import render
from repro.analysis.runner import module_name_for

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

CORE_MODULE = "repro.cluster.fake_module"  # REP001-scoped virtual module
NEUTRAL_MODULE = "fixture_module"  # package-agnostic rules only


def codes(findings: list[Finding]) -> list[str]:
    return [finding.rule for finding in findings]


def lint(source: str, module: str = NEUTRAL_MODULE) -> list[Finding]:
    return lint_source(source, path="<fixture>", module=module)


class TestFramework:
    def test_registry_has_the_five_contract_rules(self):
        assert [rule.code for rule in all_rules()] == [
            "REP001",
            "REP002",
            "REP003",
            "REP004",
            "REP005",
        ]
        assert known_codes() == {
            "REP000",
            "REP001",
            "REP002",
            "REP003",
            "REP004",
            "REP005",
        }

    def test_syntax_error_is_a_finding_not_a_crash(self):
        findings = lint("def broken(:\n    pass\n")
        assert codes(findings) == ["REP000"]
        assert "syntax error" in findings[0].message

    def test_module_name_derivation(self):
        assert (
            module_name_for("src/repro/cluster/simulator.py")
            == "repro.cluster.simulator"
        )
        assert module_name_for("src/repro/analysis/__init__.py") == (
            "repro.analysis"
        )
        assert module_name_for("tests/test_analysis.py") == "test_analysis"

    def test_findings_sort_stably(self):
        source = "import time\nx = {id(y): 1}\nz = time.time()\n"
        findings = lint(source, module=CORE_MODULE)
        assert [f.line for f in findings] == sorted(f.line for f in findings)


class TestPragmas:
    def test_trailing_pragma_suppresses(self):
        findings = lint(
            "import time\n"
            "t = time.time()  # repro: allow[REP001] fixture: justified\n",
            module=CORE_MODULE,
        )
        assert findings == []

    def test_standalone_pragma_suppresses_next_code_line(self):
        findings = lint(
            "import time\n"
            "# repro: allow[REP001] fixture: justified\n"
            "t = time.time()\n",
            module=CORE_MODULE,
        )
        assert findings == []

    def test_stale_pragma_is_an_error(self):
        findings = lint(
            "x = 1  # repro: allow[REP002] nothing here violates REP002\n"
        )
        assert codes(findings) == ["REP000"]
        assert "stale pragma" in findings[0].message

    def test_pragma_without_reason_is_an_error(self):
        findings = lint("import time\nt = time.time()  # repro: allow[REP001]\n",
                        module=CORE_MODULE)
        assert "REP000" in codes(findings)
        assert "no reason" in " ".join(f.message for f in findings)
        # And the unsuppressed violation still surfaces.
        assert "REP001" in codes(findings)

    def test_malformed_pragma_is_an_error(self):
        findings = lint("x = 1  # repro: allwo[REP001] typo in introducer\n")
        assert codes(findings) == ["REP000"]
        assert "malformed" in findings[0].message

    def test_unknown_rule_code_is_an_error(self):
        findings = lint("x = 1  # repro: allow[REP999] no such rule\n")
        assert codes(findings) == ["REP000"]
        assert "unknown rule" in findings[0].message

    def test_multi_code_pragma_suppresses_both(self):
        findings = lint(
            "import time\n"
            "d = {}\n"
            "d[id(time.time())] = 1"
            "  # repro: allow[REP001,REP002] fixture: both justified\n",
            module=CORE_MODULE,
        )
        assert findings == []

    def test_pragma_inside_string_literal_is_inert(self):
        findings = lint('doc = "# repro: allow[REP001] not a real pragma"\n')
        assert findings == []

    def test_partially_stale_multi_code_pragma_reports_the_stale_half(self):
        findings = lint(
            "import time\n"
            "t = time.time()  # repro: allow[REP001,REP002] only 001 fires\n",
            module=CORE_MODULE,
        )
        assert codes(findings) == ["REP000"]
        assert "REP002" in findings[0].message


class TestRep001AmbientNondeterminism:
    @pytest.mark.parametrize(
        "snippet",
        [
            "import time\nt = time.time()\n",
            "from time import perf_counter\nt = perf_counter()\n",
            "import os\nnoise = os.urandom(8)\n",
            "from datetime import datetime\nnow = datetime.now()\n",
            "import random\nx = random.random()\n",
            "import random\nrandom.shuffle(items)\n",
            "import numpy as np\nrng = np.random.default_rng()\n",
            "import numpy as np\nx = np.random.rand(3)\n",
            "import uuid\ntoken = uuid.uuid4()\n",
            "import secrets\ntoken = secrets.token_hex(8)\n",
        ],
    )
    def test_bad_flagged_in_core(self, snippet):
        assert codes(lint(snippet, module=CORE_MODULE)) == ["REP001"]

    @pytest.mark.parametrize(
        "snippet",
        [
            # Seeded constructions are the sanctioned spelling.
            "import numpy as np\nrng = np.random.default_rng(42)\n",
            "import random\nrng = random.Random(7)\n",
            # Instance draws resolve to a variable, not the module.
            "rng = get_rng()\nx = rng.random()\n",
            # time.sleep does not leak into results.
            "import time\ntime.sleep(0.1)\n",
        ],
    )
    def test_good_clean_in_core(self, snippet):
        assert lint(snippet, module=CORE_MODULE) == []

    def test_outside_the_core_is_out_of_scope(self):
        snippet = "import time\nt = time.time()\n"
        assert lint(snippet, module="repro.obs.fake") == []
        assert lint(snippet, module=NEUTRAL_MODULE) == []

    def test_aliased_import_still_resolves(self):
        findings = lint(
            "import time as clock\nt = clock.time()\n", module=CORE_MODULE
        )
        assert codes(findings) == ["REP001"]

    def test_local_shadow_is_not_the_module(self):
        findings = lint(
            "def f(time):\n    return time.time()\n", module=CORE_MODULE
        )
        assert findings == []

    def test_pragma_suppresses_and_stale_pragma_errors(self):
        clean = lint(
            "from time import perf_counter\n"
            "tick = perf_counter()  # repro: allow[REP001] out-of-band\n",
            module=CORE_MODULE,
        )
        assert clean == []
        stale = lint(
            "x = 1  # repro: allow[REP001] nothing fires\n", module=CORE_MODULE
        )
        assert codes(stale) == ["REP000"]


class TestRep002IdAsKey:
    @pytest.mark.parametrize(
        "snippet",
        [
            "d = {}\nd[id(x)] = 1\n",
            "v = d[id(x)]\n",
            "seen = set()\nseen.add(id(x))\n",
            "if id(x) in seen:\n    pass\n",
            "if id(a) == id(b):\n    pass\n",
            "d = {id(x): 1}\n",
            "s = {id(x)}\n",
            "d = {id(v): v for v in items}\n",
            "s = {id(v) for v in items}\n",
            "v = cache.get(id(x))\n",
            "cache.setdefault(id(x), [])\n",
            "seen.add((kind, id(x)))\n",
            "d[(id(a), id(b))] = 1\n",
        ],
    )
    def test_bad_flagged(self, snippet):
        assert "REP002" in codes(lint(snippet))

    @pytest.mark.parametrize(
        "snippet",
        [
            # Diagnostics are fine: the id value is printed, not keyed.
            "print(id(x))\n",
            "log.debug('obj %s', id(x))\n",
            # A local function named id is not the builtin.
            "def f(id):\n    d = {}\n    d[id(x)] = 1\n",
            # Value-keyed dedup (the deployment.py fix) is clean.
            "seen = set()\nseen.add(tuple(e.describe() for e in entries))\n",
        ],
    )
    def test_good_clean(self, snippet):
        assert lint(snippet) == []

    def test_applies_everywhere_not_just_core(self):
        assert codes(lint("d[id(x)] = 1\n", module=NEUTRAL_MODULE)) == ["REP002"]

    def test_pragma_suppresses(self):
        findings = lint(
            "seen.add(id(x))  # repro: allow[REP002] lifetime pinned by seen\n"
        )
        assert findings == []


REP003_CLASS_HEADER = (
    "from dataclasses import dataclass, field\n"
    "import threading\n"
    "\n"
    "@dataclass\n"
    "class Scenario:\n"
)


class TestRep003PickleSafety:
    # A two-window request sends WindowOutcome and PairedWindow across the
    # pool and the spool.
    @pytest.mark.parametrize("class_name", ["Scenario", "WindowOutcome", "PairedWindow"])
    def test_lambda_field_default_flagged(self, class_name):
        header = REP003_CLASS_HEADER.replace("Scenario", class_name)
        findings = lint(header + "    hook = lambda: 1\n")
        assert "REP003" in codes(findings)

    def test_field_default_lambda_flagged(self):
        findings = lint(
            REP003_CLASS_HEADER + "    hook: object = field(default=lambda: 1)\n"
        )
        assert "REP003" in codes(findings)

    def test_threading_primitive_assignment_flagged(self):
        source = (
            "import threading\n"
            "class SimulationRequest:\n"
            "    def __post_init__(self):\n"
            "        self.lock = threading.Lock()\n"
        )
        findings = lint(source)
        assert codes(findings) == ["REP003"]

    def test_open_handle_assignment_flagged(self):
        source = (
            "class FaultPlan:\n"
            "    def __init__(self, path):\n"
            "        self.handle = open(path)\n"
        )
        assert codes(lint(source)) == ["REP003"]

    def test_frozen_setattr_spelling_flagged(self):
        source = (
            "class Scenario:\n"
            "    def __post_init__(self):\n"
            "        object.__setattr__(self, 'hook', lambda: 1)\n"
        )
        assert codes(lint(source)) == ["REP003"]

    def test_local_class_in_method_flagged(self):
        source = (
            "class RolloutPlan:\n"
            "    def build(self):\n"
            "        class Local:\n"
            "            pass\n"
            "        return Local()\n"
        )
        findings = lint(source)
        assert codes(findings) == ["REP003"]
        assert "local class" in findings[0].message

    def test_configbuild_subclass_is_a_boundary_class(self):
        source = (
            "class SneakyBuild(ConfigBuild):\n"
            "    def __init__(self):\n"
            "        self.callback = lambda c: c\n"
        )
        assert codes(lint(source)) == ["REP003"]

    def test_good_boundary_class_clean(self):
        source = (
            "from dataclasses import dataclass, field\n"
            "@dataclass(frozen=True)\n"
            "class Scenario:\n"
            "    name: str = ''\n"
            "    tags: tuple = ()\n"
            "    extras: list = field(default_factory=list)\n"
        )
        assert lint(source) == []

    def test_non_boundary_class_may_hold_anything(self):
        source = (
            "import threading\n"
            "class Orchestrator:\n"
            "    def __init__(self):\n"
            "        self.lock = threading.Lock()\n"
            "        self.hook = lambda: 1\n"
        )
        assert lint(source) == []

    def test_pragma_suppresses(self):
        source = (
            "class Scenario:\n"
            "    def __post_init__(self):\n"
            "        # repro: allow[REP003] fixture: stripped before pickling\n"
            "        self.hook = lambda: 1\n"
        )
        assert lint(source) == []


class TestRep004CacheKeyCompleteness:
    def test_missing_field_flagged(self):
        source = (
            "from dataclasses import dataclass\n"
            "@dataclass\n"
            "class Request:\n"
            "    tenant: str\n"
            "    days: float = 1.0\n"
            "    def cache_key(self):\n"
            "        return (self.tenant,)\n"
        )
        findings = lint(source)
        assert codes(findings) == ["REP004"]
        assert "'days'" in findings[0].message

    def test_all_fields_read_is_clean(self):
        source = (
            "from dataclasses import dataclass\n"
            "@dataclass\n"
            "class Request:\n"
            "    tenant: str\n"
            "    days: float = 1.0\n"
            "    def cache_key(self):\n"
            "        return (self.tenant, self.days)\n"
        )
        assert lint(source) == []

    def test_reads_through_helper_methods_count(self):
        source = (
            "from dataclasses import dataclass\n"
            "@dataclass\n"
            "class Request:\n"
            "    tenant: str\n"
            "    days: float = 1.0\n"
            "    def _material(self):\n"
            "        return f'{self.days}'\n"
            "    def cache_key(self):\n"
            "        return (self.tenant, self._material())\n"
        )
        assert lint(source) == []

    def test_whole_instance_use_covers_everything(self):
        source = (
            "from dataclasses import dataclass\n"
            "@dataclass\n"
            "class Request:\n"
            "    tenant: str\n"
            "    days: float = 1.0\n"
            "    def cache_key(self):\n"
            "        return repr(self)\n"
        )
        assert lint(source) == []

    def test_fingerprint_is_also_a_key_method(self):
        source = (
            "from dataclasses import dataclass\n"
            "@dataclass\n"
            "class Spec:\n"
            "    rate: float = 0.0\n"
            "    sku: str = ''\n"
            "    def fingerprint(self):\n"
            "        return f'{self.rate}'\n"
        )
        findings = lint(source)
        assert codes(findings) == ["REP004"]
        assert "'sku'" in findings[0].message

    def test_classvar_and_underscore_names_exempt(self):
        source = (
            "from dataclasses import dataclass\n"
            "from typing import ClassVar\n"
            "@dataclass\n"
            "class Request:\n"
            "    KINDS: ClassVar[tuple] = ()\n"
            "    tenant: str = ''\n"
            "    def cache_key(self):\n"
            "        return (self.tenant,)\n"
        )
        assert lint(source) == []

    def test_repr_keyed_class_rejects_repr_false_fields(self):
        source = (
            "from dataclasses import dataclass, field\n"
            "@dataclass(frozen=True)\n"
            "class Scenario:\n"
            "    name: str = ''\n"
            "    load: float = field(default=1.0, repr=False)\n"
        )
        findings = lint(source)
        assert codes(findings) == ["REP004"]
        assert "repr=False" in findings[0].message

    def test_repr_keyed_class_rejects_custom_repr(self):
        source = (
            "from dataclasses import dataclass\n"
            "@dataclass(frozen=True)\n"
            "class Scenario:\n"
            "    name: str = ''\n"
            "    def __repr__(self):\n"
            "        return 'Scenario()'\n"
        )
        findings = lint(source)
        assert codes(findings) == ["REP004"]

    def test_pragma_on_the_field_suppresses(self):
        source = (
            "from dataclasses import dataclass\n"
            "@dataclass\n"
            "class Request:\n"
            "    tenant: str\n"
            "    # repro: allow[REP004] display-only label, never affects behavior\n"
            "    label: str = ''\n"
            "    def cache_key(self):\n"
            "        return (self.tenant,)\n"
        )
        assert lint(source) == []

    def test_non_dataclass_with_cache_key_is_exempt(self):
        source = (
            "class Handle:\n"
            "    def __init__(self, a, b):\n"
            "        self.a, self.b = a, b\n"
            "    def cache_key(self):\n"
            "        return self.a\n"
        )
        assert lint(source) == []


class TestRep005ImportLayering:
    def test_cluster_importing_service_flagged(self):
        findings = lint(
            "from repro.service.pool import SimulationRequest\n",
            module="repro.cluster.fake",
        )
        assert codes(findings) == ["REP005"]
        assert "above it" in findings[0].message

    def test_obs_importing_simulation_layer_flagged(self):
        findings = lint(
            "from repro.cluster import build_cluster\n", module="repro.obs.fake"
        )
        assert codes(findings) == ["REP005"]

    def test_telemetry_importing_service_flagged(self):
        findings = lint(
            "import repro.service.cache\n", module="repro.telemetry.fake"
        )
        assert codes(findings) == ["REP005"]

    def test_facade_import_from_inside_a_layer_flagged(self):
        findings = lint("import repro\n", module="repro.workload.fake")
        assert codes(findings) == ["REP005"]
        assert "facade" in findings[0].message

    def test_unplaced_package_flagged(self):
        findings = lint("x = 1\n", module="repro.brand_new_layer.mod")
        assert codes(findings) == ["REP005"]
        assert "not in the layering DAG" in findings[0].message

    def test_allowed_imports_clean(self):
        assert (
            lint(
                "from repro.cluster.simulator import ClusterSimulator\n"
                "from repro.obs.trace import Tracer\n"
                "from repro.utils.errors import ServiceError\n",
                module="repro.service.fake",
            )
            == []
        )
        assert (
            lint(
                "from repro.telemetry.frame import MachineHourFrame\n",
                module="repro.cluster.fake",
            )
            == []
        )

    def test_intra_package_imports_clean(self):
        assert (
            lint(
                "from repro.cluster.machine import Machine\n",
                module="repro.cluster.fake",
            )
            == []
        )

    def test_non_repro_modules_exempt(self):
        assert lint("import repro\nfrom repro.service import pool\n") == []

    def test_stdlib_imports_ignored(self):
        assert (
            lint("import os\nfrom collections import deque\n",
                 module="repro.obs.fake")
            == []
        )


class TestReporting:
    @pytest.fixture()
    def findings(self):
        return lint("import time\nt = time.time()\n", module=CORE_MODULE)

    def test_text_format(self, findings):
        out = render(findings, "text", checked=1)
        assert "<fixture>:2:5: REP001" in out
        assert "1 finding in 1 file" in out

    def test_text_format_clean_summary(self):
        assert render([], "text", checked=3) == "clean: 3 files checked"

    def test_json_format_round_trips(self, findings):
        payload = json.loads(render(findings, "json", checked=1))
        assert payload["files_checked"] == 1
        assert payload["findings"][0]["rule"] == "REP001"
        assert payload["findings"][0]["line"] == 2

    def test_github_format_emits_error_commands(self, findings):
        out = render(findings, "github", checked=1)
        assert out.startswith("::error file=<fixture>,line=2,col=5,title=REP001::")

    def test_unknown_format_rejected(self, findings):
        with pytest.raises(ValueError, match="unknown format"):
            render(findings, "xml", checked=1)


class TestLiveTree:
    """The linter must dogfood clean on this repository, via the real CLI."""

    def run_cli(self, *args: str) -> subprocess.CompletedProcess:
        env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))
        return subprocess.run(
            [sys.executable, "-m", "repro.analysis", *args],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env=env,
        )

    def test_src_exits_clean(self):
        result = self.run_cli("src")
        assert result.returncode == 0, result.stdout + result.stderr
        assert "clean" in result.stdout

    def test_full_tree_exits_clean(self):
        result = self.run_cli("src", "tests", "benchmarks", "examples")
        assert result.returncode == 0, result.stdout + result.stderr

    def test_violation_fails_with_exit_code_one(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("d = {}\nd[id(x)] = 1\n")
        result = self.run_cli(str(bad))
        assert result.returncode == 1
        assert "REP002" in result.stdout

    def test_json_format_from_cli(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("seen = set()\nseen.add(id(x))\n")
        result = self.run_cli(str(bad), "--format", "json")
        payload = json.loads(result.stdout)
        assert payload["findings"][0]["rule"] == "REP002"

    def test_list_rules(self):
        result = self.run_cli("--list-rules")
        assert result.returncode == 0
        for code in ("REP001", "REP002", "REP003", "REP004", "REP005"):
            assert code in result.stdout

    def test_every_pragma_in_the_tree_carries_a_reason(self):
        """Belt and braces: the suppression engine enforces this, but
        re-check the reasons with an independent regex over the tree's
        comments so a matcher regression cannot silently waive them.
        (Tokenized, not line-grepped: docstrings showing pragma syntax —
        the pragma module's own docs — are not live pragmas.)"""
        import io
        import re
        import tokenize

        pattern = re.compile(r"#\s*repro:\s*allow\[[A-Z0-9,\s]+\]\s*(\S.*)?$")
        offenders = []
        for root, dirs, files in os.walk(os.path.join(REPO_ROOT, "src")):
            dirs[:] = [d for d in dirs if d != "__pycache__"]
            for name in files:
                if not name.endswith(".py"):
                    continue
                path = os.path.join(root, name)
                with open(path, encoding="utf-8") as handle:
                    source = handle.read()
                tokens = tokenize.generate_tokens(io.StringIO(source).readline)
                for tok in tokens:
                    if tok.type != tokenize.COMMENT:
                        continue
                    if "repro: allow[" not in tok.string:
                        continue
                    match = pattern.search(tok.string)
                    if match is None or not match.group(1):
                        offenders.append(f"{path}:{tok.start[0]}")
        assert not offenders, f"pragmas without reasons: {offenders}"
