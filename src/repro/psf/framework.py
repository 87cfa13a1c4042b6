"""The Partitionable Services Framework façade (§2.1).

Bundles the four PSF elements — declarative specification (registrar),
monitoring, planning, and deployment — with the per-domain Guards and the
dRBAC engine, exposing the two client-facing flows of the paper:

* :meth:`PSF.request_service` — "a client request for a service interface
  ... is passed on to the planning module, along with any client
  credentials"; the run-time system then instantiates, downloads, and
  connects the components (§4.3).
* :meth:`PSF.serve_client_view` — the fine-grained, single-sign-on access
  control path (§4.2): the client's provable role selects a view per the
  component's Table 4 policy, VIG generates it, and the client receives
  the view instance; no further access checks apply.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from ..clock import Clock
from ..crypto.keys import KeyStore
from ..drbac.delegation import Delegation
from ..drbac.engine import DrbacEngine
from ..errors import AuthorizationError, PsfError
from ..net.events import EventScheduler
from ..net.simnet import Network
from ..net.transport import Transport
from ..switchboard.authorizer import AuthorizationSuite
from ..views.acl import AccessDecision
from ..views.proxies import ViewRuntime
from ..views.vig import Vig
from .deployment import Deployer, Deployment
from .guard import Guard
from .monitor import EnvironmentMonitor
from .planner import (
    DeploymentPlan,
    ExistingInstance,
    Planner,
    ServiceRequest,
)
from .registrar import Registrar


@dataclass
class ServiceSession:
    """A granted service request: the plan, the live deployment, and the
    client-side access handle."""

    request: ServiceRequest
    plan: DeploymentPlan
    deployment: Deployment
    access: Any


class PSF:
    """One framework instance spanning every simulated domain."""

    def __init__(
        self,
        *,
        key_bits: int | None = None,
        key_store: KeyStore | None = None,
    ) -> None:
        self.scheduler = EventScheduler()
        if key_store is None:
            key_store = KeyStore(key_bits=key_bits) if key_bits else KeyStore()
        self.engine = DrbacEngine(key_store=key_store, clock=self.scheduler)
        self.network = Network()
        self.transport = Transport(self.network, self.scheduler)
        self.registrar = Registrar()
        self.vig = Vig(self.registrar.interfaces)
        self.monitor = EnvironmentMonitor(self.network)
        self.guards: dict[str, Guard] = {}
        self.app_guard: Optional[Guard] = None
        self.existing: list[ExistingInstance] = []
        self._deployer: Optional[Deployer] = None

    # -- setup -----------------------------------------------------------------

    def add_guard(self, domain: str, entity: str) -> Guard:
        """Install the Guard for a network domain (keyed by node.domain)."""
        guard = Guard(self.engine, entity)
        self.guards[domain] = guard
        return guard

    def set_app_guard(self, guard: Guard) -> None:
        """The Guard speaking for the application itself (signs instance
        credentials at deployment time)."""
        self.app_guard = guard

    @property
    def deployer(self) -> Deployer:
        if self._deployer is None:
            if self.app_guard is None:
                raise PsfError("set_app_guard() before deploying")
            self._deployer = Deployer(
                self.transport,
                self.engine,
                self.vig,
                self.app_guard,
                registrar=self.registrar,
            )
        return self._deployer

    def host_existing(self, name: str, node: str, obj: Any, component_name: str) -> None:
        """Register an already-running service instance (e.g. the central
        mail server) so plans can link against it."""
        component = self.registrar.component(component_name)
        self.existing.append(ExistingInstance(name=name, node=node, component=component))
        self.deployer.register_existing(name, node, obj)

    # -- planning & deployment ----------------------------------------------------

    def planner(self, *, use_views: bool = True, max_depth: int = 6) -> Planner:
        return Planner(
            self.registrar,
            self.network,
            self.guards,
            existing=self.existing,
            use_views=use_views,
            max_depth=max_depth,
        )

    def request_service(
        self,
        request: ServiceRequest,
        *,
        use_views: bool = True,
        client_suite: AuthorizationSuite | None = None,
    ) -> ServiceSession:
        """Plan, deploy, and hand the client its access handle."""
        plan = self.planner(use_views=use_views).plan(request)
        deployment = self.deployer.deploy(plan)
        access = deployment.client_access(client_suite)
        return ServiceSession(
            request=request, plan=plan, deployment=deployment, access=access
        )

    # -- fine-grained access control (Table 4) ---------------------------------------

    def serve_client_view(
        self,
        component_name: str,
        client: str,
        *,
        original: Any,
        credentials: list[Delegation] | None = None,
        runtime: ViewRuntime | None = None,
    ) -> tuple[Any, AccessDecision]:
        """Resolve the client's view per policy and instantiate it.

        "Views permit single sign-on usage, because authentication and
        authorization decisions can be completed when the view is first
        instantiated.  After that clients are free to access the view they
        receive, without additional access control."
        """
        policy = self.registrar.policy(component_name)
        if policy is None:
            raise PsfError(f"component {component_name!r} has no view access policy")
        decision = policy.resolve(client, self.engine, credentials)
        if decision is None:
            raise AuthorizationError(
                f"client {client!r} holds no role admitted by {component_name!r}"
            )
        spec = self.registrar.view_spec(decision.view_name)
        base_cls = self.registrar.component_class(component_name)
        if base_cls is None:
            base_cls = type(original)
        view_cls = self.vig.generate(spec, base_cls)
        view_runtime = runtime or ViewRuntime()
        view_runtime.local_objects.setdefault(spec.represents, original)
        view = view_cls(view_runtime)
        return view, decision
