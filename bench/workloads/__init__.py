"""The benchmark's workloads, by name."""

from .churn import ChurnSimple, ChurnTable2
from .guarded_rpc import GuardedRpc
from .mail_deploy import MailDeploy
from .secure_session import SecureSession

WORKLOADS = {
    cls.name: cls
    for cls in (GuardedRpc, SecureSession, ChurnSimple, ChurnTable2, MailDeploy)
}
