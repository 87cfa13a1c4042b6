"""Deployment infrastructure (§2.1, §4.3).

"Once the planning module finds a valid plan ... the run-time system is
responsible for instantiating, downloading, and securely connecting the
views."  Concretely, the deployer:

1. instantiates every planned component, providers before consumers —
   view-typed components are generated on the spot by VIG (generation
   deferred to first deployment);
2. issues each instance its own credential chain, signed by the
   application Guard ("the deployment infrastructure issues to the
   generated view its own set of credentials");
3. exports instances on their node's RPC and Switchboard endpoints, plus
   an :class:`~repro.views.coherence.ImageService` so remote views can
   synchronize their images;
4. wires the planned links: local references, plaintext RMI stubs, or
   Switchboard secure channels, per the planner's chosen mode.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Optional

from .. import obs
from ..drbac.delegation import Delegation
from ..drbac.engine import DrbacEngine
from ..drbac.model import EntityRef
from ..errors import DeploymentError
from ..obs import names as metric_names
from ..net.simnet import Network
from ..net.transport import Transport
from ..switchboard.authorizer import AcceptAllAuthorizer, AuthorizationSuite
from ..switchboard.channel import SwitchboardEndpoint
from ..switchboard.registry import NamingRegistry, ServiceAddress
from ..switchboard.rpc import PlainRpcEndpoint
from ..views.coherence import ImageService
from ..views.proxies import IMAGE_BINDING_PREFIX, RmiStub, SwitchboardStub, ViewRuntime
from ..views.vig import Vig
from .component import ComponentType
from .guard import Guard
from .planner import DeploymentPlan, PlannedComponent, PlannedLink
from .registrar import Registrar


class NodeRuntime:
    """Per-node communication endpoints, created lazily and shared."""

    def __init__(
        self,
        transport: Transport,
        node_name: str,
        engine: DrbacEngine,
    ) -> None:
        self.node_name = node_name
        self._engine = engine
        self.rpc = PlainRpcEndpoint(transport, node_name)
        self.switchboard = SwitchboardEndpoint(
            transport, node_name, directory=engine.key_store.get
        )

    def publish(
        self, name: str, obj: Any, credentials: Iterable[Delegation] = ()
    ) -> None:
        """Make ``obj`` callable over both endpoints as ``name``, with its
        :class:`ImageService` beside it so remote views can synchronize.
        Channels to it are accepted under the name's own identity."""
        image = ImageService(obj)
        for target, exported in ((name, obj), (f"{name}#image", image)):
            self.rpc.exporter.export(target, exported)
            self.switchboard.export(target, exported)
        self.switchboard.listen(
            name,
            AuthorizationSuite(
                identity=self._engine.identity(name),
                credentials=list(credentials),
                authorizer=AcceptAllAuthorizer(),
            ),
        )

    def unpublish(self, name: str) -> None:
        for target in (name, f"{name}#image"):
            self.rpc.exporter.unexport(target)
            self.switchboard.exporter.unexport(target)


@dataclass
class DeployedInstance:
    """A live component instance produced by the deployer."""

    instance_id: str
    component: ComponentType
    node: str
    obj: Any
    credentials: list[Delegation] = field(default_factory=list)

    def __str__(self) -> str:
        return f"{self.instance_id}({self.component.name})@{self.node}"


class DeploymentContext:
    """What a component factory sees while being instantiated."""

    def __init__(
        self,
        instance_id: str,
        node: str,
        deployment: "Deployment",
        links: list[PlannedLink],
    ) -> None:
        self.instance_id = instance_id
        self.node = node
        self._deployment = deployment
        self._links = links

    def require(self, interface: str) -> Any:
        """Resolve the provider wired to this instance's required port."""
        for link in self._links:
            if link.consumer == self.instance_id and link.interface == interface:
                return self._deployment.access_provider(link, from_node=self.node)
        raise DeploymentError(
            f"{self.instance_id} has no planned link for interface {interface!r}"
        )


class Deployment:
    """A realized plan: live instances, exports, and channel wiring."""

    def __init__(
        self,
        plan: DeploymentPlan,
        deployer: "Deployer",
    ) -> None:
        self.plan = plan
        self.deployer = deployer
        self.naming = NamingRegistry()
        self.instances: dict[str, DeployedInstance] = {}

    # -- provider resolution ------------------------------------------------

    def provider_location(self, provider: str) -> tuple[str, Any]:
        """(node, object) for a planned instance or an existing export."""
        instance = self.instances.get(provider)
        if instance is not None:
            return instance.node, instance.obj
        existing = self.deployer.existing_objects.get(provider)
        if existing is not None:
            return existing
        raise DeploymentError(f"unknown provider {provider!r}")

    def access_provider(
        self,
        link: PlannedLink,
        *,
        from_node: str,
        suite: AuthorizationSuite | None = None,
    ) -> Any:
        """Materialize the consumer-side handle for one planned link.

        A Switchboard link authenticates as ``suite``; by default as its
        consumer — the requesting client on the entry link, the consuming
        instance everywhere else.
        """
        node, obj = self.provider_location(link.provider)
        if link.mode == "local":
            if node != from_node:
                raise DeploymentError(
                    f"link {link.consumer}->{link.provider} is local but nodes differ"
                )
            return obj
        address = ServiceAddress(node=node, service=link.provider, target=link.provider)
        runtime = self.deployer.node_runtime(from_node)
        if link.mode == "rmi":
            return RmiStub(runtime.rpc, address)
        if link.mode == "switchboard":
            if suite is None:
                if link.consumer == "client":
                    client = self.deployer.engine.identity(self.plan.request.client)
                    suite = AuthorizationSuite(identity=client)
                else:
                    suite = self.deployer.instance_suite(link.consumer)
            pending = runtime.switchboard.connect(node, link.provider, suite)
            return SwitchboardStub(pending.wait(), link.provider)
        raise DeploymentError(f"unknown link mode {link.mode!r}")

    # -- crash handling ---------------------------------------------------------

    def evict_node(self, node: str) -> list[str]:
        """Drop every instance hosted on a crashed node.

        Crash-stop semantics: the instances' state is gone, and their
        exports must disappear so a restarted host does not resurrect
        stale objects.  Returns the evicted instance ids; the adaptation
        layer uses a non-empty result to force redeployment even when the
        re-planned configuration looks identical on paper.
        """
        evicted = [
            instance_id
            for instance_id, instance in self.instances.items()
            if instance.node == node
        ]
        runtime = self.deployer._node_runtimes.get(node)
        for instance_id in evicted:
            del self.instances[instance_id]
            if runtime is not None:
                runtime.unpublish(instance_id)
        return evicted

    # -- client side -----------------------------------------------------------

    def entry_link(self) -> PlannedLink:
        for link in self.plan.links:
            if link.consumer == "client":
                return link
        raise DeploymentError("plan has no client entry link")

    def client_access(self, suite: AuthorizationSuite | None = None) -> Any:
        """The handle the requesting client uses to reach the service:
        the entry link's, authenticated as the client unless a ``suite``
        is presented."""
        return self.access_provider(
            self.entry_link(), from_node=self.plan.request.client_node, suite=suite
        )


class Deployer:
    """Executes deployment plans against the simulated network."""

    def __init__(
        self,
        transport: Transport,
        engine: DrbacEngine,
        vig: Vig,
        app_guard: Guard,
        *,
        registrar: Optional["Registrar"] = None,
        existing_objects: dict[str, tuple[str, Any]] | None = None,
    ) -> None:
        self.transport = transport
        self.engine = engine
        self.vig = vig
        self.app_guard = app_guard
        self.registrar = registrar
        self.existing_objects = dict(existing_objects or {})
        self._node_runtimes: dict[str, NodeRuntime] = {}
        self._suites: dict[str, AuthorizationSuite] = {}
        self.deploy_count = 0

    # -- infrastructure --------------------------------------------------------

    @property
    def network(self) -> Network:
        return self.transport.network

    def node_runtime(self, node_name: str) -> NodeRuntime:
        runtime = self._node_runtimes.get(node_name)
        if runtime is None:
            runtime = NodeRuntime(self.transport, node_name, self.engine)
            self._node_runtimes[node_name] = runtime
        return runtime

    def instance_suite(self, instance_id: str) -> AuthorizationSuite:
        suite = self._suites.get(instance_id)
        if suite is None:
            identity = self.engine.identity(instance_id)
            suite = AuthorizationSuite(identity=identity)
            self._suites[instance_id] = suite
        return suite

    def register_existing(self, name: str, node: str, obj: Any) -> None:
        """Make a running service linkable and remotely callable."""
        self.existing_objects[name] = (node, obj)
        self.node_runtime(node).publish(name, obj)

    # -- execution ------------------------------------------------------------------

    def deploy(self, plan: DeploymentPlan) -> Deployment:
        """Instantiate, credential, export, and wire a plan."""
        with obs.span("psf.deploy", components=len(plan.components)) as sp:
            deployment = Deployment(plan, self)
            # Providers appear after their consumers in plan order (regression
            # appends depth-first), so instantiate in reverse.
            for planned in reversed(plan.components):
                instance = self._instantiate(planned, deployment)
                deployment.instances[planned.instance_id] = instance
                self.node_runtime(planned.node).publish(
                    planned.instance_id, instance.obj, instance.credentials
                )
            self.deploy_count += 1
        if obs.is_enabled():
            obs.counter(metric_names.DEPLOY_DEPLOYMENTS).inc()
            obs.counter(metric_names.DEPLOY_INSTANCES).inc(len(deployment.instances))
            obs.histogram(metric_names.DEPLOY_DURATION).observe(sp.duration)
        return deployment

    # -- steps ----------------------------------------------------------------------------

    def _instantiate(
        self, planned: PlannedComponent, deployment: Deployment
    ) -> DeployedInstance:
        component = planned.component
        context = DeploymentContext(
            instance_id=planned.instance_id,
            node=planned.node,
            deployment=deployment,
            links=deployment.plan.links,
        )
        credentials = self._issue_credentials(planned)
        if component.view_spec is not None:
            obj = self._instantiate_view(planned, deployment, context)
        elif component.factory is not None:
            obj = component.factory(context)
        else:
            raise DeploymentError(
                f"component {component.name!r} has neither a factory nor a view spec"
            )
        return DeployedInstance(
            instance_id=planned.instance_id,
            component=component,
            node=planned.node,
            obj=obj,
            credentials=credentials,
        )

    def _issue_credentials(self, planned: PlannedComponent) -> list[Delegation]:
        """Give the instance its own credential chain (§4.3)."""
        credentials: list[Delegation] = []
        role = planned.component.component_role
        if role is not None:
            credentials.append(
                self.engine.delegate(
                    role.owner,
                    EntityRef(planned.instance_id),
                    role,
                )
            )
        obs.counter(metric_names.DEPLOY_CREDENTIALS).inc(len(credentials))
        return credentials

    def _instantiate_view(
        self,
        planned: PlannedComponent,
        deployment: Deployment,
        context: DeploymentContext,
    ) -> Any:
        component = planned.component
        spec = component.view_spec
        assert spec is not None
        base_name = component.properties.get("view_of", spec.represents)
        represented = self._represented_class(base_name, spec.represents)
        view_cls = self.vig.generate(spec, represented)

        runtime = ViewRuntime(
            naming=deployment.naming,
            rpc=self.node_runtime(planned.node).rpc,
            switchboard=self.node_runtime(planned.node).switchboard,
            suite=self.instance_suite(planned.instance_id),
        )
        # Wire the view's remote interfaces and image port to its provider.
        for link in deployment.plan.links:
            if link.consumer != planned.instance_id:
                continue
            node, obj = deployment.provider_location(link.provider)
            if link.mode == "local":
                runtime.local_objects[spec.represents] = obj
            else:
                address = ServiceAddress(
                    node=node, service=link.provider, target=link.provider
                )
                image_address = ServiceAddress(
                    node=node, service=link.provider, target=f"{link.provider}#image"
                )
                for restriction in spec.interfaces:
                    binding = restriction.binding or restriction.name
                    if binding not in deployment.naming:
                        deployment.naming.bind(binding, address)
                    runtime.binding_modes.setdefault(binding, link.mode)
                image_binding = IMAGE_BINDING_PREFIX + spec.represents
                deployment.naming.bind(image_binding, image_address)
                # The origin port must use the channel mode the planner
                # certified for this link, not a blanket preference.
                runtime.binding_modes[image_binding] = link.mode
        return view_cls(runtime)

    def _represented_class(self, base_name: str, represents: str) -> type:
        cls = None
        if self.registrar is not None:
            cls = self.registrar.component_class(base_name) or (
                self.registrar.component_class(represents)
            )
        if cls is None:
            raise DeploymentError(
                f"no implementation class registered for {base_name!r} "
                f"(represents {represents!r}); register it with the registrar"
            )
        return cls
