"""Invariants the chaos suites check, stated once."""

from repro.core import EvolutionPhase


def assert_never_half_applied(manager, loids, context, versions=None):
    """Every live, settled instance is wholly at one version.

    Its DFM must match ``manager``'s descriptor of the version it
    reports: the same components, the same enabled component for every
    function, the same exported interface — never a blend of two
    versions.  ``versions``, when given, lists the versions instances
    may be at (a wave's from and to versions); an instance at any
    other, or with no version at all, fails.
    """
    for loid in loids:
        record = manager.record(loid)
        if not record.active:
            continue  # crashed: no live state to be half of anything
        obj = record.obj
        if obj.evolution_phase is not EvolutionPhase.IDLE:
            continue  # mid-transaction; prepare/commit/rollback settles it
        where = f"{context}: {loid} at {obj.version}"
        if versions is not None:
            assert obj.version in versions, f"{where}, expected one of {versions}"
        elif obj.version is None:
            continue  # just rebuilt, configuration not yet delivered
        dfm = obj.dfm
        descriptor = manager.descriptor_of(obj.version, allow_instantiable=True)
        assert set(dfm.component_ids) == descriptor.component_ids, (
            f"{where} with components {sorted(dfm.component_ids)} "
            f"(half-applied evolution)"
        )
        for function in descriptor.function_names():
            enabled = dfm.enabled_components_of(function)
            assert enabled == descriptor.enabled_components_of(function), (
                f"{where} runs {function} from {sorted(enabled)}"
            )
        assert dfm.exported_interface() == descriptor.exported_interface(), (
            f"{where} exports {dfm.exported_interface()}"
        )
