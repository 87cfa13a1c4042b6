"""The view experiments: E-SSO and E-VIG.

E-SSO (§4.2): "Views permit single sign-on usage, because authentication
and authorization decisions can be completed when the view is first
instantiated.  After that clients are free to access the view they
receive, without additional access control."  N requests through (a) a
view resolved and instantiated once vs (b) a Legion-MayI-style wrapper
that re-runs the dRBAC proof on every call, and (c) a monitored proof
cache in between.  The shape: the view runs no proof per call, the
baseline one per call, the cache one in total.

E-VIG (§4.3): "The generation of the code for a view is deferred to the
time this view is first deployed.  This ensures that despite their
flexibility, views incur management costs proportional to their
utility."  Generated code grows with the spec; repeat deployments are
served from the digest cache.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.baselines.acl_per_call import PerCallGuardedService
from repro.drbac import CachedAuthorizer, DrbacEngine
from repro.mail import MailClient
from repro.obs import names as metric_names
from repro.views import (
    InterfaceDef,
    InterfaceRegistry,
    MethodSig,
    Vig,
    ViewRuntime,
    ViewSpec,
)
from repro.views.spec import InterfaceMode, InterfaceRestriction

from ..views import exec_with_source
from . import print_table

# -- E-SSO -------------------------------------------------------------------

N_CALLS = 50


def _accounts():
    return {"alice": {"name": "alice", "phone": "212", "email": "a@x"}}


@pytest.fixture()
def member_engine(key_store):
    """Alice is a member among 50 distractor members."""
    engine = DrbacEngine(key_store=key_store)
    engine.delegate("Comp.NY", "Alice", "Comp.NY.Member")
    for i in range(50):
        engine.delegate("Comp.NY", f"other{i}", "Comp.NY.Member")
    return engine


def test_single_sign_on_proofs_per_call(shared_scenario, member_engine):
    """Proof searches over N calls: 0 through the view after its one-time
    resolution, N through the per-call baseline."""
    registrar = shared_scenario.psf.registrar
    with obs.scoped() as registry:
        decision = registrar.policy("MailClient").resolve("Alice", shared_scenario.engine)
        view_cls = Vig(registrar.interfaces).generate(
            registrar.view_spec(decision.view_name), MailClient
        )
        view = view_cls(ViewRuntime(local_objects={"MailClient": MailClient(accounts=_accounts())}))
        at_instantiation = registry.counter_value(metric_names.PROOF_SEARCHES)
        for _ in range(N_CALLS):
            assert view.getPhone("alice") == "212"
        view_proofs = registry.counter_value(metric_names.PROOF_SEARCHES) - at_instantiation

        guarded = PerCallGuardedService(
            MailClient(accounts=_accounts()), member_engine, "Comp.NY.Member"
        )
        before = registry.counter_value(metric_names.PROOF_SEARCHES)
        for _ in range(N_CALLS):
            assert guarded.invoke("Alice", "getPhone", ["alice"]) == "212"
        acl_proofs = registry.counter_value(metric_names.PROOF_SEARCHES) - before
    print_table(
        f"E-SSO: {N_CALLS} requests, authorize-once view vs per-call proofs",
        ["mechanism", "proofs at instantiation", f"proofs over {N_CALLS} calls"],
        [
            [f"view ({decision.view_name})", at_instantiation, view_proofs],
            ["per-call dRBAC proof", 0, acl_proofs],
        ],
    )
    assert at_instantiation >= 1
    assert view_proofs == 0
    assert acl_proofs == guarded.stats.proofs_run == N_CALLS


def test_cached_proof_checks_every_call(member_engine):
    """The middle ground: a per-call check against a monitored proof cache
    searches once, then answers every later call from the cache."""
    cache = CachedAuthorizer(member_engine)
    target = MailClient(accounts=_accounts())
    for _ in range(N_CALLS):
        cache.authorize("Alice", "Comp.NY.Member")
        assert target.getPhone("alice") == "212"
    assert (cache.stats.misses, cache.stats.hits) == (1, N_CALLS - 1)


# -- E-VIG -------------------------------------------------------------------


def _make_class(n_methods: int) -> type:
    # VIG reads each copied method's source to find the fields it touches
    # (Javassist's declaration analysis), so the class is built from text.
    methods = "".join(
        f"    def m{i}(self):\n"
        f"        self.state = self.state + {i}\n"
        f"        return self.state\n"
        for i in range(n_methods)
    )
    name = f"Wide{n_methods}"
    source = f"class {name}:\n    def __init__(self):\n        self.state = 0\n{methods}"
    return exec_with_source(source, name.lower())[name]


def _spec_and_vig(n_methods: int):
    cls = _make_class(n_methods)
    iface = InterfaceDef(
        f"WideI{n_methods}",
        tuple(MethodSig(f"m{i}", ()) for i in range(n_methods)),
    )
    registry = InterfaceRegistry()
    registry.register(iface)
    spec = ViewSpec(
        name=f"WideView{n_methods}",
        represents=cls.__name__,
        interfaces=(InterfaceRestriction(iface.name, InterfaceMode.LOCAL),),
    )
    return cls, spec, Vig(registry)


@pytest.mark.parametrize("n_methods", [2, 8, 32])
def test_generation_scales_with_spec_size(n_methods):
    """Every interface method is copied, and the view behaves like the
    original."""
    cls, spec, vig = _spec_and_vig(n_methods)
    view_cls = vig.generate(spec, cls)
    copied = [m for m in vars(view_cls) if m.startswith("m") and m[1:].isdigit()]
    assert len(copied) == n_methods
    view = view_cls(ViewRuntime(local_objects={cls.__name__: cls()}))
    assert getattr(view, f"m{n_methods - 1}")() == n_methods - 1


def test_generation_is_deferred_and_cached():
    """101 deployments of one spec generate its class once."""
    cls, spec, vig = _spec_and_vig(16)
    for _ in range(101):
        vig.generate(spec, cls)
    print_table(
        "E-VIG: deferred generation economics (101 deployments)",
        ["path", "count"],
        [["cold generation", vig.stats.generated], ["cache hit", vig.stats.cache_hits]],
    )
    assert vig.stats.generated == 1
    assert vig.stats.cache_hits == 100
