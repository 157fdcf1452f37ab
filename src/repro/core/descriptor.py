"""DFM descriptors: manager-side version definitions (§2.4).

"A DFM descriptor's structure mirrors that of a DFM, but it is not
used to map function calls to their implementations; instead DFM
descriptors are used by the DCDO Manager to configure its DCDOs" —
when a DCDO is created, when it migrates, and when it evolves.

A descriptor records, per (function, component) pair, whether that
implementation is enabled and exported, plus the §3.2 restriction
state: markings, permanent pins, and dependencies.  Configuration
operations validate against the shared rules in
:mod:`repro.core.validation`.
"""

import itertools
from dataclasses import dataclass, field, replace

from repro.core import validation
from repro.core.errors import ComponentNotIncorporated, PermanenceViolation
from repro.core.functions import Marking

_descriptor_ids = itertools.count(1)


@dataclass(frozen=True)
class DescriptorEntry:
    """State of one function implementation within a descriptor."""

    function: str
    component_id: str
    enabled: bool
    exported: bool


@dataclass(frozen=True)
class ComponentRef:
    """How to obtain a component: its id and its ICO's LOID.

    ``component`` carries the component descriptor itself when the
    ref was built by a manager (which maintains the components): a
    DCDO applying a configuration can then skip the metadata round
    trip and only contact the ICO for code data it does not have
    cached — this is what makes cached-component evolution cost
    microseconds rather than a round trip (§4).
    """

    component_id: str
    ico_loid: object
    component: object = None


@dataclass
class ConfigurationDiff:
    """The change set taking one descriptor state to another.

    Produced by :func:`diff_descriptors`; consumed by a DCDO's
    ``applyConfiguration``.  ``target`` carries the full destination
    descriptor so the object can rebuild its DFM atomically; the add /
    remove lists let it pay exactly the incremental incorporation
    costs.
    """

    target: object
    components_to_add: list = field(default_factory=list)
    components_to_remove: list = field(default_factory=list)
    entry_changes: int = 0
    target_version: object = None
    #: The version the diff was computed from (None: an unconfigured
    #: instance).  A DCDO refuses a diff whose base is not its own
    #: version: applied elsewhere it would blend two versions.
    base_version: object = None
    #: False for compensating (wave-rollback) diffs: returning to the
    #: prior version may legitimately weaken §3.2 markings the aborted
    #: version had introduced, so the prepare-time transition-rule
    #: check is waived (the prior version was itself validated when it
    #: was marked instantiable).
    enforce_restrictions: bool = True

    @property
    def is_noop(self):
        """True when nothing changes."""
        return (
            not self.components_to_add
            and not self.components_to_remove
            and self.entry_changes == 0
        )


class DFMDescriptor:
    """A configurable mirror of a DFM, defining one version.

    Descriptors start empty; managers build them up with the
    configuration operations below, then freeze them by marking the
    owning version instantiable (freezing is the manager's job — the
    descriptor itself stays mutable and is defensively cloned).
    """

    def __init__(self):
        self.descriptor_id = next(_descriptor_ids)
        self._entries = {}
        self._component_refs = {}
        self._markings = {}
        self._pins = {}
        self._dependencies = []

    # ------------------------------------------------------------------
    # State-protocol accessors (shared with the live DFM)
    # ------------------------------------------------------------------

    @property
    def component_ids(self):
        """Set of incorporated component ids."""
        return set(self._component_refs)

    @property
    def dependencies(self):
        """Declared dependencies (list copy)."""
        return list(self._dependencies)

    def entry(self, function, component_id):
        """The entry for (function, component) or None."""
        return self._entries.get((function, component_id))

    def entries_for(self, function):
        """All entries implementing ``function``."""
        return [entry for entry in self._entries.values() if entry.function == function]

    def entries_in(self, component_id):
        """All entries implemented by ``component_id``."""
        return [
            entry for entry in self._entries.values() if entry.component_id == component_id
        ]

    def is_enabled(self, function, component_id):
        """True if that particular implementation is enabled."""
        entry = self._entries.get((function, component_id))
        return entry is not None and entry.enabled

    def enabled_components_of(self, function):
        """Component ids with an enabled implementation of ``function``."""
        return {
            entry.component_id
            for entry in self._entries.values()
            if entry.function == function and entry.enabled
        }

    def marking(self, function):
        """The function's marking (FULLY_DYNAMIC by default)."""
        return self._markings.get(function, Marking.FULLY_DYNAMIC)

    def markings_items(self):
        """(function, marking) pairs for non-default markings."""
        return list(self._markings.items())

    def pin(self, function):
        """The permanent pin for ``function``, or None."""
        return self._pins.get(function)

    def component_ref(self, component_id):
        """The :class:`ComponentRef` for an incorporated component."""
        ref = self._component_refs.get(component_id)
        if ref is None:
            raise ComponentNotIncorporated(f"component {component_id!r} is not incorporated")
        return ref

    def component_refs(self):
        """All component refs, keyed by component id."""
        return dict(self._component_refs)

    def function_names(self):
        """Sorted names of all functions with at least one entry."""
        return sorted({entry.function for entry in self._entries.values()})

    def exported_interface(self):
        """Sorted names of enabled, exported functions (the interface)."""
        return sorted(
            {
                entry.function
                for entry in self._entries.values()
                if entry.enabled and entry.exported
            }
        )

    # ------------------------------------------------------------------
    # Configuration operations (§2.4: "functions for deriving new
    # versions from existing ones, and for configuring the new
    # versions; these functions are similar to a DCDO's configuration
    # functions")
    # ------------------------------------------------------------------

    def incorporate(self, component, ico_loid):
        """Add ``component`` (entries start disabled).

        Merges the component's demanded markings and shipped
        dependencies; fails on permanent-marking conflicts.
        """
        validation.check_can_incorporate(self, component)
        self._component_refs[component.component_id] = ComponentRef(
            component.component_id, ico_loid, component
        )
        for name, function_def in component.functions.items():
            self._entries[(name, component.component_id)] = DescriptorEntry(
                function=name,
                component_id=component.component_id,
                enabled=False,
                exported=function_def.exported,
            )
        for name, demanded in component.required_markings.items():
            self._raise_marking(name, demanded, pin_component=component.component_id)
        for dependency in component.declared_dependencies:
            if dependency not in self._dependencies:
                self._dependencies.append(dependency)

    def remove_component(self, component_id):
        """Remove a component and every entry it implements."""
        surviving_dependencies = validation.check_can_remove_component(self, component_id)
        self._dependencies = surviving_dependencies
        del self._component_refs[component_id]
        self._entries = {
            key: entry
            for key, entry in self._entries.items()
            if entry.component_id != component_id
        }

    def enable(self, function, component_id, replace_current=False):
        """Enable one implementation of ``function``.

        With ``replace_current`` the currently-enabled implementation
        (if any) is swapped out *atomically* — the "replace the
        implementation" evolution step.  Mandatory functions allow
        replacement (some implementation stays enabled throughout);
        permanent ones do not.

        Descriptors are staging areas: dependency closure is NOT
        enforced per enable (enable in any order you like) but is
        validated when the owning version is marked instantiable.
        """
        others = self.enabled_components_of(function) - {component_id}
        if replace_current and others:
            if self.entry(function, component_id) is None:
                raise ComponentNotIncorporated(
                    f"no implementation of {function!r} in component {component_id!r}"
                )
            pinned = self.pin(function)
            if pinned is not None and pinned != component_id:
                raise PermanenceViolation(
                    f"{function!r} is permanently pinned to component {pinned!r}"
                )
            for other in others:
                other_key = (function, other)
                self._entries[other_key] = replace(self._entries[other_key], enabled=False)
            key = (function, component_id)
            self._entries[key] = replace(self._entries[key], enabled=True)
            return
        validation.check_can_enable(self, function, component_id, enforce_dependencies=False)
        key = (function, component_id)
        self._entries[key] = replace(self._entries[key], enabled=True)

    def disable(self, function, component_id):
        """Disable one implementation of ``function``."""
        validation.check_can_disable(self, function, component_id)
        key = (function, component_id)
        self._entries[key] = replace(self._entries[key], enabled=False)

    def set_exported(self, function, component_id, exported):
        """Move a function between the public and private interfaces."""
        entry = self._entries.get((function, component_id))
        if entry is None:
            raise ComponentNotIncorporated(
                f"no implementation of {function!r} in component {component_id!r}"
            )
        self._entries[(function, component_id)] = replace(entry, exported=exported)

    def mark_mandatory(self, function):
        """Mark ``function`` mandatory (irreversible, §3.2)."""
        self._raise_marking(function, Marking.MANDATORY)

    def mark_permanent(self, function, component_id=None):
        """Mark ``function`` permanent, pinning one implementation.

        Defaults to the currently-enabled implementation; fails if the
        function is already pinned elsewhere.
        """
        if component_id is None:
            enabled = self.enabled_components_of(function)
            if len(enabled) != 1:
                raise PermanenceViolation(
                    f"cannot infer the permanent implementation of {function!r}; "
                    f"enabled in {sorted(enabled)}"
                )
            component_id = next(iter(enabled))
        self._raise_marking(function, Marking.PERMANENT, pin_component=component_id)

    def _raise_marking(self, function, marking, pin_component=None):
        current = self.marking(function)
        if marking is Marking.PERMANENT:
            existing_pin = self._pins.get(function)
            if existing_pin is not None and existing_pin != pin_component:
                raise PermanenceViolation(
                    f"{function!r} is already permanently pinned to {existing_pin!r}"
                )
            self._pins[function] = pin_component
        if marking.at_least(current):
            self._markings[function] = marking
        elif not current.at_least(marking):
            self._markings[function] = marking
        # Weakening attempts are ignored rather than raised: markings
        # are monotone ("once a DCDO evolves to a version that contains
        # a function marked mandatory, all future versions ... will
        # contain some implementation", §3.2).

    def add_dependency(self, dependency):
        """Declare a dependency; the current state must satisfy it."""
        trial = self._dependencies + [dependency]
        from repro.core.dependency import check_dependencies

        check_dependencies(trial, self.is_enabled, self.enabled_components_of)
        self._dependencies.append(dependency)

    def remove_dependency(self, dependency):
        """Retract a declared dependency."""
        if dependency in self._dependencies:
            self._dependencies.remove(dependency)

    # ------------------------------------------------------------------
    # Cloning, equivalence, validation, diffing
    # ------------------------------------------------------------------

    def clone(self):
        """Deep copy, used when deriving a new version (§2.4)."""
        copy = DFMDescriptor()
        copy._entries = dict(self._entries)
        copy._component_refs = dict(self._component_refs)
        copy._markings = dict(self._markings)
        copy._pins = dict(self._pins)
        copy._dependencies = list(self._dependencies)
        return copy

    def __repr__(self):
        return f"<DFMDescriptor components={sorted(self._component_refs)}>"

    def functionally_equivalent(self, other):
        """§2.1 equivalence: same components, same enabled/exported map."""
        return (
            self.component_ids == other.component_ids
            and self._entries == other._entries
        )

    def validate_instantiable(self):
        """Raise unless this descriptor may be marked instantiable."""
        validation.check_instantiable(self)


def diff_descriptors(current, target):
    """Compute the :class:`ConfigurationDiff` from ``current`` to ``target``."""
    current_components = current.component_ids
    target_components = target.component_ids
    to_add = [
        target.component_ref(component_id)
        for component_id in sorted(target_components - current_components)
    ]
    to_remove = sorted(current_components - target_components)
    changes = 0
    for key, entry in target._entries.items():
        old = current._entries.get(key)
        if old is None or old != entry:
            changes += 1
    changes += sum(1 for key in current._entries if key not in target._entries)
    return ConfigurationDiff(
        target=target.clone(),
        components_to_add=to_add,
        components_to_remove=to_remove,
        entry_changes=changes,
    )
