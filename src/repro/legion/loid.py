"""Legion object identifiers.

Every object in the system — user objects, class objects, ICOs, DCDO
Managers, service objects — is named by a :class:`LOID`: a globally
unique, location-independent identifier.  LOIDs carry a *domain*, a
*type name*, and an *instance number*, mirroring Legion's structured
identifiers while staying printable and hashable.

LOIDs minted through :func:`mint_loid` / :func:`class_loid` are
*interned*: one canonical object per (domain, type_name, instance)
triple, so the dict lookups that dominate the ``core``/``net`` hot
paths hit CPython's identity fast path instead of comparing strings,
and ``a is b`` is a valid equality check for runtime-minted LOIDs.
Directly constructed LOIDs keep plain value semantics (they compare
and hash by fields); :func:`intern_loid` folds one into the canon.
"""

import itertools
from dataclasses import dataclass

_instance_counters = {}
_intern = {}


@dataclass(frozen=True, order=True)
class LOID:
    """A location-independent object identifier.

    Attributes
    ----------
    domain:
        Administrative domain string (one per runtime by default).
    type_name:
        The name of the object's type (its class object's name).
    instance:
        Instance number, unique within (domain, type_name).
    """

    domain: str
    type_name: str
    instance: int

    def __post_init__(self):
        # Frozen dataclass: stash the caches via object.__setattr__.
        # str() and hash() of LOIDs run inside every directory lookup
        # and lock-ordering sort, so both are computed exactly once.
        object.__setattr__(
            self, "_str", f"{self.domain}/{self.type_name}#{self.instance}"
        )
        object.__setattr__(
            self, "_hash", hash((self.domain, self.type_name, self.instance))
        )

    def __str__(self):
        return self._str

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is LOID:
            return (
                self.instance == other.instance
                and self.type_name == other.type_name
                and self.domain == other.domain
            )
        return NotImplemented

    @property
    def is_class(self):
        """True for class-object LOIDs (instance 0 by convention)."""
        return self.instance == 0


def intern_loid(loid):
    """Return the canonical instance equal to ``loid``."""
    return _intern.setdefault((loid.domain, loid.type_name, loid.instance), loid)


def mint_loid(domain, type_name, counters=_instance_counters):
    """Create a fresh instance LOID for (domain, type_name).

    Instance numbers start at 1; 0 is reserved for the class object
    itself (see :func:`class_loid`).  ``counters`` holds the next
    number per (domain, type_name): a runtime passes its own (see
    :meth:`~repro.legion.runtime.LegionRuntime.mint_loid`), so its
    numbering does not depend on what other runtimes in the process
    minted.  The result is the canonical interned object for its
    triple.
    """
    key = (domain, type_name)
    if key not in counters:
        counters[key] = itertools.count(1)
    instance = next(counters[key])
    return _intern.setdefault(
        (domain, type_name, instance), LOID(domain, type_name, instance)
    )


def class_loid(domain, type_name):
    """The (interned) LOID of the class object for (domain, type_name)."""
    key = (domain, type_name, 0)
    loid = _intern.get(key)
    if loid is None:
        loid = _intern.setdefault(key, LOID(domain, type_name, 0))
    return loid
