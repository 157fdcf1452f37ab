"""Errors raised by the DCDO model.

The §3.1 hazard errors (:class:`FunctionNotEnabled`,
:class:`ComponentBusy`) are what programs observe when evolution is
*not* restricted; the restriction errors
(:class:`DependencyViolation`, :class:`PermanenceViolation`,
:class:`MandatoryViolation`) are what configuration calls get when the
§3.2 mechanisms refuse an unsafe change.
"""

from repro.legion.errors import LegionError


class DCDOError(LegionError):
    """Base class for DCDO-model errors."""


class FunctionNotEnabled(DCDOError):
    """No enabled implementation of the function exists in the DFM.

    Raised for internal calls (the *missing/disappearing internal
    function problem*, §3.1) and surfaced to remote clients as
    :class:`~repro.legion.errors.MethodNotFound` (the *disappearing
    exported function problem*).
    """

    def __init__(self, function, detail=""):
        suffix = f" ({detail})" if detail else ""
        super().__init__(f"no enabled implementation of {function!r}{suffix}")
        self.function = function


class FunctionNotExported(DCDOError):
    """The function exists but is internal; remote calls may not use it."""

    def __init__(self, function):
        super().__init__(f"function {function!r} is internal, not exported")
        self.function = function


class ComponentNotIncorporated(DCDOError):
    """The named component is not part of this DCDO."""


class ComponentAlreadyIncorporated(DCDOError):
    """The named component is already part of this DCDO."""


class ComponentBusy(DCDOError):
    """A remove/config request found active threads in the component.

    This is the guard against the *disappearing component problem*
    (§3.1) under the ``error`` removal policy.
    """

    def __init__(self, component_id, active_threads):
        super().__init__(
            f"component {component_id!r} has {active_threads} active thread(s)"
        )
        self.component_id = component_id
        self.active_threads = active_threads


class DependencyViolation(DCDOError):
    """A configuration change would break a declared dependency (§3.2)."""

    def __init__(self, dependency, detail):
        super().__init__(f"{dependency} violated: {detail}")
        self.dependency = dependency


class MandatoryViolation(DCDOError):
    """A change would leave a mandatory function without an enabled
    implementation (§3.2)."""


class PermanenceViolation(DCDOError):
    """A change would alter or disable a permanent function's pinned
    implementation (§3.2)."""


class MarkingConflict(DCDOError):
    """Two components demand incompatible permanent implementations of
    the same function (§3.2: the incorporation "fails")."""


class AmbiguousFunction(DCDOError):
    """Enabling would leave two enabled implementations of one function."""


class VersionError(DCDOError):
    """Base class for version-management errors."""


class UnknownVersion(VersionError):
    """The manager's DFM store has no such version."""


class VersionNotInstantiable(VersionError):
    """The version is still configurable; it cannot create or evolve
    DCDOs until marked instantiable (§2.4)."""


class VersionNotConfigurable(VersionError):
    """The version is instantiable; its DFM descriptor "cannot be
    changed any further" (§2.4)."""


class EvolutionDisallowed(VersionError):
    """The manager's evolution policy refuses this version transition."""


class IncompatibleImplementationType(DCDOError):
    """No component variant matches the target host's implementation type."""


class RollbackFailed(DCDOError):
    """A compensating rollback itself failed mid-undo.

    The transactional evolution guarantee ("never half-applied") rests
    on rollback being infallible in-memory work; if it raises, the
    instance may genuinely be half-applied and operators must
    intervene.  Carries both the original failure that triggered the
    rollback and the error the rollback hit.
    """

    def __init__(self, cause, rollback_error):
        super().__init__(
            f"rollback after {cause!r} failed with {rollback_error!r}; "
            f"instance state may be inconsistent"
        )
        self.cause = cause
        self.rollback_error = rollback_error


class DiffBaseMismatch(VersionError):
    """A configuration diff was computed from a version the instance is
    not at.

    Applied anyway it would blend two versions: a v1→v2 diff on an
    instance rebuilt with no configuration adds only v2's new
    components.  Carries the instance's ``actual_version`` so the
    manager can re-diff from it.
    """

    def __init__(self, base_version, actual_version):
        super().__init__(
            f"diff from version {base_version} refused by an instance at "
            f"{actual_version}"
        )
        self.base_version = base_version
        self.actual_version = actual_version


class ManagerRecoveryError(DCDOError):
    """Manager recovery could not proceed (e.g. no live host to run on).

    Distinct from transient delivery failures: the recovery call itself
    is impossible right now and should be retried after conditions
    change, not treated as a half-done recovery.
    """


class WaveAborted(VersionError):
    """An evolution wave crossed its abort threshold and was rolled
    back; instances that had committed the new version were returned
    to their prior versions (see :class:`~repro.core.manager.WavePolicy`)."""

    def __init__(self, version, failed, threshold):
        super().__init__(
            f"wave for version {version} aborted: {failed} deliveries failed "
            f"(threshold {threshold})"
        )
        self.version = version
        self.failed = failed
        self.threshold = threshold
