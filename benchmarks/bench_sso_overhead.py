"""E-SSO — single sign-on: authorize-once views vs. per-call checking.

§4.2: "Views permit single sign-on usage, because authentication and
authorization decisions can be completed when the view is first
instantiated.  After that clients are free to access the view they
receive, without additional access control."

The comparison: N requests through (a) a view whose authorization happened
at instantiation vs. (b) a Legion-MayI-style wrapper that re-runs the
dRBAC proof on every call.  The shape to reproduce: per-call cost for the
view is flat and small; the baseline pays a proof per request, so the gap
grows linearly with N.
"""

from __future__ import annotations

import time

import pytest

from repro.baselines.acl_per_call import PerCallGuardedService
from repro.mail import VIEW_MAIL_CLIENT_MEMBER, MailClient
from repro.views import Vig, ViewRuntime

from conftest import print_table

N_CALLS = 50


def _accounts():
    return {"alice": {"name": "alice", "phone": "212", "email": "a@x"}}


@pytest.fixture(scope="module")
def member_view(mail_app):
    view_cls = Vig(mail_app.interfaces).generate(VIEW_MAIL_CLIENT_MEMBER, MailClient)
    original = MailClient(accounts=_accounts())
    return view_cls(ViewRuntime(local_objects={"MailClient": original}))


@pytest.fixture(scope="module")
def guarded_service(key_store):
    from repro.drbac import DrbacEngine

    engine = DrbacEngine(key_store=key_store)
    engine.delegate("Comp.NY", "Alice", "Comp.NY.Member")
    # A realistic repository with distractor credentials.
    for i in range(50):
        engine.delegate("Comp.NY", f"other{i}", "Comp.NY.Member")
    return PerCallGuardedService(MailClient(accounts=_accounts()), engine, "Comp.NY.Member")


def test_view_call_cost(benchmark, member_view):
    """(a) authorized-at-instantiation view: per-call cost."""
    benchmark(lambda: member_view.getPhone("alice"))


def test_per_call_acl_cost(benchmark, guarded_service):
    """(b) Legion-MayI baseline: proof search on every call."""
    benchmark(lambda: guarded_service.invoke("Alice", "getPhone", ["alice"]))


def test_cached_proof_call_cost(benchmark, key_store):
    """(c) middle ground: per-call check against a monitored proof cache."""
    from repro.drbac import CachedAuthorizer, DrbacEngine

    engine = DrbacEngine(key_store=key_store)
    engine.delegate("Comp.NY", "Alice", "Comp.NY.Member")
    cache = CachedAuthorizer(engine)
    target = MailClient(accounts=_accounts())

    def call():
        cache.authorize("Alice", "Comp.NY.Member")
        return target.getPhone("alice")

    assert benchmark(call) == "212"


def test_sso_speedup_table(benchmark, member_view, guarded_service):
    """The headline comparison across N calls."""

    def run_batch():
        t0 = time.perf_counter()
        for _ in range(N_CALLS):
            member_view.getPhone("alice")
        view_time = time.perf_counter() - t0
        t0 = time.perf_counter()
        for _ in range(N_CALLS):
            guarded_service.invoke("Alice", "getPhone", ["alice"])
        acl_time = time.perf_counter() - t0
        return view_time, acl_time

    view_time, acl_time = benchmark.pedantic(run_batch, rounds=3, iterations=1)
    speedup = acl_time / view_time if view_time else float("inf")
    print_table(
        f"E-SSO: {N_CALLS} requests, authorize-once view vs per-call proofs",
        ["mechanism", "total (ms)", "per call (us)"],
        [
            ["view (single sign-on)", f"{view_time*1e3:.2f}", f"{view_time/N_CALLS*1e6:.1f}"],
            ["per-call dRBAC proof", f"{acl_time*1e3:.2f}", f"{acl_time/N_CALLS*1e6:.1f}"],
            ["speedup", f"{speedup:.1f}x", ""],
        ],
    )
    # Shape: single sign-on wins, and not marginally.
    assert acl_time > view_time * 2


def test_view_instantiation_amortization(benchmark, mail_app):
    """Instantiation (the one-time authorization point) is bounded."""
    view_cls = Vig(mail_app.interfaces).generate(VIEW_MAIL_CLIENT_MEMBER, MailClient)
    original = MailClient(accounts=_accounts())

    benchmark(lambda: view_cls(ViewRuntime(local_objects={"MailClient": original})))
