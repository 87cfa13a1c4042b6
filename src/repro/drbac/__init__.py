"""dRBAC: decentralized role-based access control (Section 3 of the paper).

Public API::

    from repro.drbac import DrbacEngine, Role, EntityRef, Constraint

    engine = DrbacEngine()
    engine.delegate("Comp.NY", "Alice", "Comp.NY.Member")          # cred (1)
    engine.delegate("Comp.NY", "Comp.SD.Member", "Comp.NY.Member")  # cred (2)
    engine.delegate("Comp.SD", "Bob", "Comp.SD.Member")             # cred (11)
    proof = engine.find_proof("Bob", "Comp.NY.Member")              # via 2+11
"""

from .cache import CacheStats, CachedAuthorizer
from .delegation import Delegation, DelegationType, classify, issue, require_authentic
from .engine import AuthorizationResult, DrbacEngine
from .model import (
    AttrRange,
    AttrScalar,
    AttrSet,
    Attributes,
    AttributeValue,
    EntityRef,
    IncompatibleAttributes,
    Role,
    Subject,
    attributes_satisfy,
    meet_attributes,
    parse_attribute,
    parse_subject,
    subject_key,
)
from .monitor import ProofMonitor, RevocationDirectory
from .proof import Proof, ProofEngine
from .query import Constraint
from .translate import (
    AclGroupPolicy,
    CapabilityPolicy,
    ForeignPolicy,
    PolicyTranslator,
    SyncReport,
    TranslationRule,
)
from .verify import ProofVerifier, VerificationResult
from .repository import (
    BOTH_TAGS,
    DiscoveryTag,
    DistributedRepository,
    RepositoryShard,
)
from .wallet import Wallet

__all__ = [
    "AclGroupPolicy",
    "AttrRange",
    "AttrScalar",
    "AttrSet",
    "AttributeValue",
    "Attributes",
    "AuthorizationResult",
    "BOTH_TAGS",
    "Constraint",
    "CacheStats",
    "CachedAuthorizer",
    "CapabilityPolicy",
    "Delegation",
    "DelegationType",
    "DiscoveryTag",
    "DistributedRepository",
    "DrbacEngine",
    "EntityRef",
    "ForeignPolicy",
    "PolicyTranslator",
    "ProofVerifier",
    "IncompatibleAttributes",
    "Proof",
    "ProofEngine",
    "ProofMonitor",
    "RepositoryShard",
    "RevocationDirectory",
    "SyncReport",
    "TranslationRule",
    "VerificationResult",
    "Role",
    "Subject",
    "Wallet",
    "attributes_satisfy",
    "classify",
    "issue",
    "meet_attributes",
    "parse_attribute",
    "parse_subject",
    "require_authentic",
    "subject_key",
]
