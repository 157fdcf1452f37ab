"""Version identifiers and version trees (§2.1, §3.5).

A :class:`VersionId` is "an array of positive integers that identifies
some version of an object type's implementation"; identifiers are
unique only within one type.  Versions form a derivation tree: deriving
from ``3.2`` yields ``3.2.1``, then ``3.2.2``, and so on, and under the
increasing-version-number policy "objects can only evolve to versions
that are descendants in that tree".
"""

from dataclasses import dataclass


@dataclass(frozen=True, order=True)
class VersionId:
    """An immutable dotted version identifier, e.g. ``1.2.3``."""

    parts: tuple

    def __post_init__(self):
        if not self.parts:
            raise ValueError("a version identifier needs at least one part")
        for part in self.parts:
            if not isinstance(part, int) or part < 1:
                raise ValueError(f"version parts must be positive integers, got {self.parts!r}")

    @classmethod
    def parse(cls, text):
        """Build a VersionId from a dotted string like ``"1.2.3"``."""
        try:
            parts = tuple(int(piece) for piece in str(text).split("."))
        except ValueError as error:
            raise ValueError(f"invalid version string {text!r}") from error
        return cls(parts)

    @classmethod
    def root(cls):
        """The conventional first version of a type, ``1``."""
        return cls((1,))

    @property
    def depth(self):
        """Number of dotted parts."""
        return len(self.parts)

    @property
    def parent(self):
        """The version this one was derived from, or None for a root."""
        if len(self.parts) == 1:
            return None
        return VersionId(self.parts[:-1])

    def child(self, index):
        """The ``index``-th version derived from this one."""
        if index < 1:
            raise ValueError(f"child index must be >= 1, got {index}")
        return VersionId(self.parts + (index,))

    def derives_from(self, ancestor):
        """True if this version is ``ancestor`` or a descendant of it.

        ``3.2.1`` derives from ``3.2``; ``3.3`` does not (§3.5).
        """
        if len(ancestor.parts) > len(self.parts):
            return False
        return self.parts[: len(ancestor.parts)] == ancestor.parts

    def __str__(self):
        return ".".join(str(part) for part in self.parts)


class VersionTree:
    """The set of versions defined for one object type.

    Tracks parentage and hands out fresh child identifiers; the
    DFM-store bookkeeping (descriptors, instantiability) lives in the
    manager, which keys it by these identifiers.
    """

    def __init__(self):
        self._children = {}
        self._known = set()
        self._roots = 0

    @property
    def known_versions(self):
        """All version ids ever created, unordered."""
        return set(self._known)

    def next_root(self):
        """The id :meth:`new_root` would create, without creating it."""
        return VersionId((self._roots + 1,))

    def next_child(self, parent):
        """The id :meth:`derive` would create, without creating it."""
        if parent not in self._known:
            raise KeyError(f"unknown version {parent}")
        return parent.child(self._children.get(parent, 0) + 1)

    def new_root(self):
        """Create a fresh top-level version (1, then 2, ...)."""
        version = self.next_root()
        self.restore(version)
        return version

    def derive(self, parent):
        """Create the next child of ``parent`` and return it."""
        child = self.next_child(parent)
        self.restore(child)
        return child

    def restore(self, version):
        """Re-admit a version id replayed from a journal.

        Advances the root/child allocation counters past it, so a
        recovered tree never re-issues an id the crashed manager
        already handed out.
        """
        self._known.add(version)
        if version.depth == 1:
            self._roots = max(self._roots, version.parts[0])
        else:
            parent = version.parent
            self._children[parent] = max(
                self._children.get(parent, 0), version.parts[-1]
            )

    def __contains__(self, version):
        return version in self._known

    def __eq__(self, other):
        if not isinstance(other, VersionTree):
            return NotImplemented
        return (self._known, self._roots, self._children) == (
            other._known,
            other._roots,
            other._children,
        )

    def descendants(self, ancestor):
        """All known versions deriving from ``ancestor`` (inclusive)."""
        return {version for version in self._known if version.derives_from(ancestor)}
