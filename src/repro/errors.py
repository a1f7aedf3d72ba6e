"""Exception hierarchy shared across the repro packages.

Every subsystem raises subclasses of :class:`ReproError` so callers can
catch a single base class at service boundaries while tests can assert on
precise failure modes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


# --------------------------------------------------------------------------
# Database engine errors
# --------------------------------------------------------------------------

class DatabaseError(ReproError):
    """Base class for storage-engine failures."""


class SchemaError(DatabaseError):
    """A table/collection/index definition is invalid or missing."""


class UnknownTableError(SchemaError):
    """Operation referenced a table that does not exist."""


class UnknownColumnError(SchemaError):
    """Operation referenced a column that does not exist."""


class DuplicateKeyError(DatabaseError):
    """A uniqueness constraint (primary key / unique index) was violated."""


class TypeMismatchError(DatabaseError):
    """A value does not conform to the declared column type."""


class TransactionError(DatabaseError):
    """Transaction lifecycle misuse (double commit, write outside txn, ...)."""


class UnsupportedOperationError(DatabaseError):
    """The engine does not support the requested operation."""


class FaultInjected(DatabaseError):
    """Raised by fault-injection hooks to simulate component failure."""


# --------------------------------------------------------------------------
# ORM errors
# --------------------------------------------------------------------------

class ORMError(ReproError):
    """Base class for ORM-layer failures."""


class RecordNotFound(ORMError):
    """``find`` could not locate a record by primary key."""


class ReadOnlyAttributeError(ORMError):
    """Attempted write to an attribute owned by another service."""


# --------------------------------------------------------------------------
# Broker errors
# --------------------------------------------------------------------------

class BrokerError(ReproError):
    """Base class for message-broker failures."""


class QueueDecommissioned(BrokerError):
    """The subscriber queue exceeded its limit and was killed (§4.4)."""


# --------------------------------------------------------------------------
# Synapse core errors
# --------------------------------------------------------------------------

class SynapseError(ReproError):
    """Base class for Synapse publish/subscribe failures."""


class PublicationError(SynapseError):
    """Invalid publisher declaration or publish-time failure."""


class SubscriptionError(SynapseError):
    """Invalid subscriber declaration (e.g. unpublished attribute, §4.5)."""


class DecoratorViolation(SynapseError):
    """A decorator broke one of its three restrictions (§3.1)."""


class DeliveryModeError(SynapseError):
    """Subscriber requested stronger semantics than its publisher offers."""


class MigrationError(SynapseError):
    """A live schema migration rule of §4.3 was violated."""


class CdcError(SynapseError):
    """CDC / transactional-outbox failure: a malformed or newer-versioned
    outbox row, a raw write on an unbound model, or a poller misuse."""


# --------------------------------------------------------------------------
# Durability errors
# --------------------------------------------------------------------------

class DurabilityError(SynapseError):
    """Base class for WAL / snapshot / restore failures."""


class WALCorrupt(DurabilityError):
    """The write-ahead log cannot be trusted: a mid-log record failed
    its CRC, a segment is missing, or a record uses a newer wire
    version. Restore must fall back to snapshot-only state and re-enter
    bootstrap/repair."""


class WALWriteFailed(DurabilityError):
    """A segment write, flush or fsync failed (a full disk, an I/O
    error). The log is fail-stop: this and every later append raise, so
    nothing more is published or acked as durable; restart the process
    over the surviving prefix."""


# --------------------------------------------------------------------------
# Control-plane transport errors
# --------------------------------------------------------------------------

class TransportError(SynapseError):
    """A control-plane request could not be transported to its peer."""


class TransportTimeout(TransportError):
    """A control-plane request got no reply within its deadline."""


class TransportSerializationError(TransportError):
    """A control-plane envelope (or its result) is not JSON-serializable —
    nothing non-wire-format may cross the service boundary."""


class ControlPlaneError(SynapseError):
    """The peer answered a control-plane request with a structured error.

    ``error_type`` carries the remote exception class name (or one of the
    transport-level codes ``UnknownService`` / ``UnknownOperation``).
    """

    def __init__(self, message: str, error_type: str = "",
                 service: str = "", op: str = "") -> None:
        super().__init__(message)
        self.error_type = error_type
        self.service = service
        self.op = op
