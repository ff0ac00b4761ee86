"""Exception hierarchy for the VideoPipe reproduction.

Every package raises subclasses of :class:`ReproError` so callers can catch
library failures without also swallowing programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class SimulationError(ReproError):
    """Raised for misuse of the discrete-event kernel (e.g. scheduling in
    the past, running a finished kernel)."""


class Interrupt(ReproError):
    """Thrown into a simulated process when another process interrupts it.

    The interrupting party may attach an arbitrary ``cause`` describing why
    the interrupt happened.
    """

    def __init__(self, cause: object = None) -> None:
        super().__init__(cause)
        self.cause = cause


class NetworkError(ReproError):
    """Base class for transport-layer failures."""


class AddressError(NetworkError):
    """Raised for malformed or unresolvable endpoint addresses."""


class LinkDown(NetworkError):
    """Raised when a message is sent over a link that is administratively
    down or between unconnected devices."""


class DeliveryError(NetworkError):
    """Raised when a message could not be delivered (dropped, no listener)."""


class RpcError(NetworkError):
    """Raised when a remote procedure call fails on the remote side or
    times out."""

    def __init__(self, message: str, *, remote: bool = False) -> None:
        super().__init__(message)
        self.remote = remote


class CircuitOpenError(RpcError):
    """Raised (fast, without touching the network) when the per-target
    circuit breaker is open because the target kept failing."""

    def __init__(self, message: str) -> None:
        super().__init__(message, remote=False)


class FaultError(ReproError):
    """Raised for invalid fault plans (unknown fault kind, bad target,
    events scheduled in the past)."""


class ConfigError(ReproError):
    """Raised for invalid pipeline configuration (bad DAG, unknown service,
    unparsable config text)."""


class PlacementError(ReproError):
    """Raised when no valid assignment of modules/services to devices exists."""


class DeploymentError(ReproError):
    """Raised when deploying a validated pipeline onto devices fails."""


class AdmissionError(DeploymentError):
    """Raised when SLO admission control rejects a deploy whose predicted
    cost would overload a device and so violate existing pipelines' SLOs.
    Carries the typed :class:`~repro.slo.AdmissionDecision` as
    ``decision``."""

    def __init__(self, message: str, decision: object = None) -> None:
        super().__init__(message)
        self.decision = decision


class ServiceError(ReproError):
    """Raised by the service framework (unknown service, no live replica,
    a service handler crashed)."""


class FrameStoreError(ReproError):
    """Raised for invalid frame-reference usage (unknown id, double free)."""


class StaleHandleError(FrameStoreError):
    """Raised when a frame reference is dereferenced after the store
    retired it (evicted, migrated off-device, or released). Carries the
    retire ``reason`` so the caller (and the auditor) can tell
    use-after-evict from use-after-migrate from double-release."""

    def __init__(self, message: str, reason: str = "unknown") -> None:
        super().__init__(message)
        self.reason = reason


class AuditError(ReproError):
    """Raised by the invariant auditor in strict mode when a conservation
    law or ordering invariant is violated (the default is to record the
    violation and keep running)."""


class DeviceError(ReproError):
    """Raised for invalid device operations (deploying a container service
    onto a device without container support, unknown device)."""


class FleetShardError(ReproError):
    """Raised by the fleet shard coordinator when a worker process dies or
    its kernel raises; names the failed shard so a 4000-home run doesn't
    fail with a bare pickle traceback."""

    def __init__(self, message: str, shard: int) -> None:
        super().__init__(message)
        self.shard = shard
