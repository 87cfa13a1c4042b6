"""Self-check entry-point tests (``python -m repro`` / ``repro stats``),
plus the metric-name self-check that keeps instrumentation and the
:mod:`repro.obs.names` catalogue in lock-step."""

from __future__ import annotations

import ast
import importlib.util
import json
import re
import subprocess
import sys
import tomllib
from pathlib import Path

import pytest

import repro
from repro import obs
from repro.__main__ import exercise_scenario, main, run_selfcheck
from repro.obs import names as metric_names
from repro.obs.names import CATALOGUE, catalogue_by_name


class TestSelfCheck:
    def test_all_checks_pass_in_process(self, capsys):
        assert run_selfcheck(key_bits=512) == 0
        out = capsys.readouterr().out
        assert "ALL CHECKS PASSED" in out
        assert "FAIL" not in out.replace("FAILED", "")

    def test_module_entry_point(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro"],
            capture_output=True,
            text=True,
            timeout=180,
        )
        assert result.returncode == 0, result.stderr[-1500:]
        assert "ALL CHECKS PASSED" in result.stdout


class TestMetricCatalogue:
    def test_catalogue_has_no_duplicates(self):
        by_name = catalogue_by_name()  # raises on duplicate entries
        assert len(by_name) == len(CATALOGUE)

    def test_catalogue_kinds_are_valid(self):
        assert {spec.kind for spec in CATALOGUE} <= {"counter", "gauge", "histogram"}

    def test_every_name_constant_is_catalogued(self):
        by_name = catalogue_by_name()
        constants = {
            value
            for key, value in vars(metric_names).items()
            if key.isupper() and isinstance(value, str)
        }
        assert constants == set(by_name)

    def test_every_instrumented_metric_is_registered_exactly_once(self):
        """Drive every instrumented subsystem, then check each live metric
        against the catalogue: known name, matching kind, no strays.  A
        typo'd name in any instrumentation site fails here instead of
        silently splitting a counter in two."""
        by_name = catalogue_by_name()
        with obs.scoped() as registry:
            exercise_scenario(key_bits=512)
            live_kinds = registry.kinds()
        assert live_kinds, "exercise_scenario recorded no metrics"
        strays = set(live_kinds) - set(by_name)
        assert not strays, f"instrumented metrics missing from the catalogue: {strays}"
        mismatched = {
            name: (kind, by_name[name].kind)
            for name, kind in live_kinds.items()
            if by_name[name].kind != kind
        }
        assert not mismatched, f"metric kind conflicts: {mismatched}"

    def test_flow_metrics_are_catalogued_with_matching_kinds(self):
        """Drive the admission stack — token bucket, fair queue,
        shedding — and check every ``flow.*`` metric it emits against the
        catalogue.  An uncatalogued flow metric name fails here, same as
        any other subsystem."""
        from repro.flow import FlowConfig, FlowController
        from repro.net.events import EventScheduler

        by_name = catalogue_by_name()
        with obs.scoped() as registry:
            scheduler = EventScheduler()
            controller = FlowController(
                FlowConfig(bucket_rate=1.0, bucket_burst=1.0, max_backlog=1),
                scheduler,
                name="test",
            )
            for n in range(4):
                controller.submit("p", "BlobStore", "put_blob", lambda: None)
            live_kinds = registry.kinds()
        flow_metrics = {
            name: kind for name, kind in live_kinds.items()
            if name.startswith("flow.")
        }
        assert flow_metrics, "the flow stack recorded no flow.* metrics"
        strays = set(flow_metrics) - set(by_name)
        assert not strays, f"flow metrics missing from the catalogue: {strays}"
        mismatched = {
            name: (kind, by_name[name].kind)
            for name, kind in flow_metrics.items()
            if by_name[name].kind != kind
        }
        assert not mismatched, f"flow metric kind conflicts: {mismatched}"

    def test_durable_metrics_are_catalogued_with_matching_kinds(self):
        """Drive the durable layer — WAL appends, compaction, a torn
        tail, crash recovery with catch-up — and check every
        ``durable.*``/``recover.*`` metric against the catalogue."""
        from repro.clock import ManualClock
        from repro.crypto import KeyStore
        from repro.drbac import CachedAuthorizer, DrbacEngine
        from repro.durable import DurableNode, UpdateFeed

        by_name = catalogue_by_name()
        with obs.scoped() as registry:
            engine = DrbacEngine(key_store=KeyStore(key_bits=512), clock=ManualClock())
            cache = CachedAuthorizer(engine)
            feed = UpdateFeed()
            node = DurableNode(engine=engine, cache=cache, feed=feed, compact_every=2)
            creds = [
                engine.delegate("OrgA", f"user{i}", "OrgA.Reader", publish=False)
                for i in range(4)
            ]
            for cred in creds:
                feed.publish(cred)
            node.crash()
            feed.revoke(creds[0])
            node.restart(torn_tail_bytes=1)
            live_kinds = registry.kinds()
        durable_metrics = {
            name: kind for name, kind in live_kinds.items()
            if name.startswith(("durable.", "recover."))
        }
        assert durable_metrics, "the durable layer recorded no metrics"
        strays = set(durable_metrics) - set(by_name)
        assert not strays, f"durable metrics missing from the catalogue: {strays}"
        mismatched = {
            name: (kind, by_name[name].kind)
            for name, kind in durable_metrics.items()
            if by_name[name].kind != kind
        }
        assert not mismatched, f"durable metric kind conflicts: {mismatched}"

    def test_scenario_lights_up_every_subsystem(self):
        """The acceptance criterion behind ``repro stats``: the mail
        scenario produces non-zero proof-search, channel, and deployment
        metrics (plus cache and coherence traffic)."""
        with obs.scoped() as registry:
            exercise_scenario(key_bits=512)
            for counter in (
                metric_names.PROOF_SEARCHES,
                metric_names.PROOF_FOUND,
                metric_names.AUTHORIZE_GRANTED,
                metric_names.CACHE_HITS,
                metric_names.SWB_HANDSHAKES_ACCEPTED,
                metric_names.SWB_CHANNELS_OPENED,
                metric_names.SWB_RPC_CALLS,
                metric_names.PLAN_SUCCESS,
                metric_names.DEPLOY_DEPLOYMENTS,
                metric_names.DEPLOY_INSTANCES,
                metric_names.COHERENCE_ACQUIRES,
            ):
                assert registry.counter_value(counter) > 0, counter
            assert registry.histogram(metric_names.SWB_RPC_LATENCY).count > 0


_CREDENTIAL_STATE_PACKAGES = ("drbac", "durable")
_CALLABLE = re.compile(r"Callable|Callback|Listener|Fold")


def _callback_list_registrations() -> set[str]:
    """``Class.method`` for every method in the credential-state packages
    that appends one of its callable parameters (alone or in a tuple) to a
    list on ``self`` — the shape of a callback-list subscription."""
    found = set()
    for package in _CREDENTIAL_STATE_PACKAGES:
        for path in sorted((Path(repro.__file__).parent / package).glob("*.py")):
            for cls in ast.walk(ast.parse(path.read_text())):
                if not isinstance(cls, ast.ClassDef):
                    continue
                for method in cls.body:
                    if not isinstance(method, ast.FunctionDef):
                        continue
                    params = {
                        arg.arg
                        for arg in method.args.args[1:] + method.args.kwonlyargs
                        if arg.annotation is not None
                        and _CALLABLE.search(ast.unparse(arg.annotation))
                    }
                    for call in ast.walk(method):
                        if (
                            isinstance(call, ast.Call)
                            and isinstance(call.func, ast.Attribute)
                            and call.func.attr == "append"
                            and isinstance(call.func.value, ast.Attribute)
                            and isinstance(call.func.value.value, ast.Name)
                            and call.func.value.value.id == "self"
                            and any(
                                isinstance(node, ast.Name) and node.id in params
                                for arg in call.args
                                for node in (
                                    arg.elts if isinstance(arg, ast.Tuple) else [arg]
                                )
                            )
                        ):
                            found.add(f"{cls.name}.{method.name}")
    return found


class TestOneCredentialLog:
    """Credential state reaches its consumers through one mechanism: the
    engine's :class:`~repro.drbac.log.CredentialLog`."""

    def test_one_subscription_mechanism(self):
        # ProofMonitor.on_invalidated is a proof's own callback list, fired
        # through the directory's monitor index, not a credential-state feed.
        assert _callback_list_registrations() == {
            "CredentialLog.subscribe",
            "ProofMonitor.on_invalidated",
        }

    @pytest.mark.parametrize(
        "name",
        ["on_publish", "on_delta", "reset_state", "_publish_listeners", "_replicas"],
    )
    def test_retired_mechanism_is_gone(self, name):
        root = Path(repro.__file__).parent
        offenders = [
            str(path.relative_to(root))
            for package in _CREDENTIAL_STATE_PACKAGES
            for path in sorted((root / package).glob("*.py"))
            if name in path.read_text()
        ]
        assert not offenders, f"{name} is back in {offenders}"


def _schedule_every_callers(package: str) -> list[str]:
    """``file:Class.method`` for every ``schedule_every`` call in a package."""
    found = []
    for path in sorted((Path(repro.__file__).parent / package).glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text())):
            if not isinstance(cls, ast.ClassDef):
                continue
            for method in cls.body:
                if not isinstance(method, ast.FunctionDef):
                    continue
                found.extend(
                    f"{path.name}:{cls.name}.{method.name}"
                    for call in ast.walk(method)
                    if isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Attribute)
                    and call.func.attr == "schedule_every"
                )
    return found


def _files_naming(name: str) -> list[str]:
    """Every module under ``repro`` whose source contains ``name``."""
    root = Path(repro.__file__).parent
    return [
        str(path.relative_to(root))
        for path in sorted(root.rglob("*.py"))
        if name in path.read_text()
    ]


class TestOneExpiryMechanism:
    """Credential expiry reaches a channel through one mechanism: the
    deadline on its :class:`~repro.drbac.monitor.ProofMonitor`."""

    @pytest.mark.parametrize(
        "name", ["watch_expiry", "stop_expiry_watch", "_expiry_cancel"]
    )
    def test_retired_mechanism_is_gone(self, name):
        offenders = _files_naming(name)
        assert not offenders, f"{name} is back in {offenders}"

    def test_the_only_periodic_switchboard_task_is_the_heartbeat(self):
        assert _schedule_every_callers("switchboard") == [
            "channel.py:SwitchboardConnection.start_heartbeats"
        ]


def _enclosing_callers(name: str, passes=lambda call: True) -> list[str]:
    """``file:Class.method`` (or ``file:function``) for every ``x.name(...)``
    or ``name(...)`` call under ``repro`` for which ``passes(call)`` holds."""
    root = Path(repro.__file__).parent
    found = []

    def visit(node: ast.AST, path: Path, scope: list[str]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                visit(child, path, scope + [child.name])
                continue
            if (
                isinstance(child, ast.Call)
                and getattr(child.func, "attr", getattr(child.func, "id", None)) == name
                and passes(child)
            ):
                found.append(f"{path.relative_to(root)}:{'.'.join(scope)}")
            visit(child, path, scope)

    for path in sorted(root.rglob("*.py")):
        visit(ast.parse(path.read_text()), path, [])
    return found


class TestOneVerifyPath:
    """A credential signature is checked in three places: once when the
    engine folds its publish record, at search time for a credential equal
    to none that fold vouched for, and by the standalone proof verifier.  A
    search-time memo would be a fourth."""

    def test_only_the_three_verify_sites_check_signatures(self):
        assert sorted(_enclosing_callers("verify_signature")) == [
            "drbac/engine.py:DrbacEngine._fold_authentic",
            "drbac/proof.py:ProofEngine.usable",
            "drbac/verify.py:ProofVerifier._check_credentials",
        ]


class TestOneReducedRoundsCaller:
    """Fewer than 40 Miller-Rabin rounds are sound only for a uniformly
    random candidate, so only prime generation may ask for them."""

    def test_only_generate_prime_passes_rounds(self):
        def passes_rounds(call: ast.Call) -> bool:
            return len(call.args) > 1 or any(k.arg == "rounds" for k in call.keywords)

        assert _enclosing_callers("is_probable_prime", passes_rounds) == [
            "crypto/numtheory.py:generate_prime"
        ]


class TestOneFlowPath:
    """Flow control is the server's admission and nothing else: a shed
    completes the call, and the caller decides what to do with it."""

    @pytest.mark.parametrize(
        "name",
        ["CircuitBreaker", "AimdLimiter", "on_shed", "_breaker_for", "limiter",
         "on_established"],
    )
    def test_retired_mechanism_is_gone(self, name):
        offenders = _files_naming(name)
        assert not offenders, f"{name} is back in {offenders}"

    def test_rpc_takes_only_server_admission_from_flow(self):
        path = Path(repro.__file__).parent / "switchboard" / "rpc.py"
        imported = {
            alias.name
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.ImportFrom)
            and (node.module or "").split(".")[-1] == "flow"
            for alias in node.names
        }
        assert imported == {"FlowConfig", "FlowController", "Shed"}


_APP_MODEL_TYPES = {
    "InterfaceDef", "MethodSig", "ViewSpec", "ComponentType", "Port",
    "Constraint", "ViewAccessPolicy",
}


def _mail_calls() -> list[str]:
    """The callee of every call in ``repro/mail``: ``X`` for ``X(...)``,
    ``X.attr`` for ``X.attr(...)`` (so ``ViewSpec.from_xml`` counts too)."""
    calls = []
    for path in sorted((Path(repro.__file__).parent / "mail").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name):
                calls.append(func.id)
            elif isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
                calls.append(f"{func.value.id}.{func.attr}")
    return calls


class TestOneApplicationDocument:
    """The mail application is defined once, by ``MAIL_APP_XML``: no module
    of ``repro.mail`` builds an interface, component, view spec, node
    constraint or access policy in Python, and one call loads the
    document."""

    def test_no_python_built_application_model(self):
        offenders = [
            call for call in _mail_calls()
            if call.split(".")[0] in _APP_MODEL_TYPES
        ]
        assert not offenders

    def test_one_load_application_call(self):
        assert _mail_calls().count("load_application") == 1


def _method_callees(path: Path, class_name: str, method: str) -> list[str]:
    """The callee of every call in ``<class_name>.<method>``: ``f`` for
    ``f(...)``, ``.attr`` for ``x.attr(...)``."""
    [cls] = [
        node for node in ast.parse(path.read_text()).body
        if isinstance(node, ast.ClassDef) and node.name == class_name
    ]
    [func] = [
        node for node in cls.body
        if isinstance(node, ast.FunctionDef) and node.name == method
    ]
    return _callees(func)


def _callees(func: ast.AST) -> list[str]:
    return [
        call.func.id if isinstance(call.func, ast.Name) else f".{call.func.attr}"
        for call in ast.walk(func)
        if isinstance(call, ast.Call)
        and isinstance(call.func, (ast.Name, ast.Attribute))
    ]


def _connection_callees(method: str) -> list[str]:
    path = Path(repro.__file__).parent / "switchboard" / "channel.py"
    return _method_callees(path, "SwitchboardConnection", method)


class TestOneDataEnvelope:
    """A sealed channel frame travels as one binary envelope: the inner
    frame is the only JSON on the data path, and nothing hex-encodes the
    ciphertext or wraps it in a second JSON object."""

    def test_send_encodes_only_the_inner_frame(self):
        assert _connection_callees("_send").count("encode_frame") == 1

    @pytest.mark.parametrize("method", ["_send", "_receive"])
    def test_no_hex_on_the_data_path(self, method):
        callees = _connection_callees(method)
        assert ".hex" not in callees and ".fromhex" not in callees

    def test_no_json_data_frame(self):
        root = Path(repro.__file__).parent / "switchboard"
        offenders = [
            path.name
            for path in sorted(root.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Dict)
            and any(
                isinstance(key, ast.Constant) and key.value == "type"
                and isinstance(value, ast.Constant) and value.value == "data"
                for key, value in zip(node.keys, node.values)
            )
        ]
        assert not offenders


class TestOneRoutingPath:
    """Dijkstra lives in one function, and the transport's per-frame path
    reaches routing only through the cached ``Network.route``."""

    net = Path(repro.__file__).parent / "net"

    def test_one_dijkstra_loop(self):
        owners = set()
        # The event scheduler's queue is the package's one other heap.
        for path in sorted(set(self.net.glob("*.py")) - {self.net / "events.py"}):
            for func in ast.walk(ast.parse(path.read_text())):
                if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                    isinstance(node, ast.Attribute) and node.attr == "heappop"
                    for node in ast.walk(func)
                ):
                    owners.add(f"{path.name}:{func.name}")
        assert owners == {"simnet.py:_dijkstra"}

    @pytest.mark.parametrize("method", ["send", "_flush"])
    def test_transport_routes_through_the_cache(self, method):
        callees = _method_callees(self.net / "transport.py", "Transport", method)
        assert callees.count(".route") == 1
        assert ".shortest_path" not in callees
        assert ".path_links" not in callees


class TestOneSelfFieldAnalysis:
    """What a method does to ``self`` is answered by one AST pass,
    ``views.vig.self_effects`` (through ``method_effects`` for a method
    with source), and no bytecode window survives anywhere."""

    src = Path(repro.__file__).parent

    def _functions(self, *names: str) -> dict[str, ast.AST]:
        return {
            f"{path.name}:{func.name}": func
            for path in sorted((self.src / "views").glob("*.py"))
            for func in ast.walk(ast.parse(path.read_text()))
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
            and (not names or func.name in names)
        }

    def test_no_module_imports_dis(self):
        importers = sorted(
            str(path.relative_to(self.src))
            for path in self.src.rglob("*.py")
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Import) and any(a.name == "dis" for a in node.names)
            or isinstance(node, ast.ImportFrom) and node.module == "dis"
        )
        assert importers == []

    def test_one_parser_and_one_source_reader(self):
        def callers(module: str, attr: str) -> set[str]:
            return {
                name for name, func in self._functions().items()
                if any(
                    isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
                    and call.func.attr == attr and isinstance(call.func.value, ast.Name)
                    and call.func.value.id == module
                    for call in ast.walk(func)
                )
            }

        assert callers("ast", "parse") == {"vig.py:self_effects"}
        assert callers("inspect", "getsource") == {"vig.py:method_effects"}

    @pytest.mark.parametrize("consumer", [
        "vig.py:_absorb_references",
        "vig.py:represented_fields",
        "autoview.py:method_writes_state",
    ])
    def test_consumers_read_the_one_analysis(self, consumer):
        func = self._functions(consumer.split(":")[1])[consumer]
        assert "method_effects" in _callees(func)


def _bench_layers():
    """``bench/layers.py``, imported read-only from its file (``bench/`` is
    not a package and must not be edited by PRs that guard performance)."""
    path = Path(__file__).resolve().parent.parent / "bench" / "layers.py"
    spec = importlib.util.spec_from_file_location("bench_layers", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestBenchBoundaries:
    """The wall-clock benchmark's smoke test tolerates a boundary that no
    longer resolves (``LAYER-COVERAGE-LOST``, a null layer metric); tier-1
    does not, so a rename cannot pass CI as lost coverage."""

    layers = _bench_layers()

    @pytest.mark.parametrize(
        "module,attribute",
        [(module, attribute) for module, attribute, _layer in layers.BOUNDARIES],
    )
    def test_every_boundary_resolves(self, module, attribute):
        assert self.layers._resolve(module, attribute)


_REPO = Path(__file__).resolve().parent.parent


def _third_party_imports(*dirs: str) -> dict[str, str]:
    """Top-level module -> first importing file, for every absolute import
    under ``dirs`` that is neither stdlib, ``repro``, nor a module or
    package of those trees (``bench/`` imports its own files by name)."""
    files = sorted(path for d in dirs for path in (_REPO / d).rglob("*.py"))
    local = {"repro"} | {
        part for path in files for part in path.relative_to(_REPO).with_suffix("").parts
    }
    found: dict[str, str] = {}
    for path in files:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            for module in modules:
                top = module.split(".")[0]
                if top not in sys.stdlib_module_names and top not in local:
                    found.setdefault(top, str(path.relative_to(_REPO)))
    return found


class TestDeclaredTestDependencies:
    """CI installs pyproject's ``test`` extra and nothing else, so every
    third-party module the tests or the benchmark import must be in it."""

    def test_every_third_party_import_is_declared(self):
        pyproject = tomllib.loads((_REPO / "pyproject.toml").read_text())
        declared = {
            re.split(r"[\s<>=!~\[;]", requirement, maxsplit=1)[0].lower().replace("-", "_")
            for requirement in pyproject["project"]["optional-dependencies"]["test"]
        }
        imported = _third_party_imports("tests", "bench")
        undeclared = {m: f for m, f in imported.items() if m not in declared}
        assert not undeclared, f"not in the test extra: {undeclared}"


class TestStatsCommand:
    def test_run_stats_in_process(self, capsys):
        assert main(["stats"]) == 0
        out = capsys.readouterr().out
        assert "== counters ==" in out
        assert metric_names.PROOF_SEARCHES in out
        assert metric_names.DEPLOY_DEPLOYMENTS in out

    def test_run_stats_json(self, capsys):
        assert main(["stats", "--json"]) == 0
        snap = json.loads(capsys.readouterr().out)
        assert snap["counters"][metric_names.PROOF_SEARCHES] > 0
        assert snap["counters"][metric_names.SWB_RPC_CALLS] > 0
        assert snap["histograms"][metric_names.SWB_RPC_LATENCY]["count"] > 0

    def test_stats_entry_point(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro", "stats", "--json"],
            capture_output=True,
            text=True,
            timeout=180,
        )
        assert result.returncode == 0, result.stderr[-1500:]
        snap = json.loads(result.stdout)
        assert snap["counters"][metric_names.DEPLOY_INSTANCES] >= 1
