"""Resource keys and versions.

A resource type is identified by a globally unique *key*, "usually
consisting of a name and a version" (S3.1).  Versions are dotted integer
tuples ("6.0.18").  The DSL's version-range sugar ("OpenMRS depends on
versions of Tomcat before 6.0.29") lowers to disjunctions over the
concrete versions that satisfy a :class:`VersionRange`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache, total_ordering
from typing import Iterable, Optional

from repro.core.errors import ResourceModelError

_VERSION_RE = re.compile(r"^\d+(\.\d+)*$")


@total_ordering
@dataclass(frozen=True)
class Version:
    """A dotted integer version such as ``6.0.18``.

    Comparison is lexicographic on the integer components, with missing
    trailing components treated as zero (so ``6.0`` == ``6.0.0`` and
    ``6.0`` < ``6.0.18``).

    Trailing zeros are stripped once, at construction, into ``_normal``;
    equality and hashing are then plain tuple operations.  ``_normal`` is
    data, not a cached hash, so it survives a pickle into an interpreter
    with another hash seed.  It is usually ``parts`` itself.
    """

    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        parts = self.parts
        end = len(parts)
        while end and parts[end - 1] == 0:
            end -= 1
        object.__setattr__(self, "_normal", parts[:end])

    @staticmethod
    def parse(text: str) -> "Version":
        text = text.strip()
        if not _VERSION_RE.match(text):
            raise ResourceModelError(f"invalid version string: {text!r}")
        return Version(tuple(int(p) for p in text.split(".")))

    @staticmethod
    def is_valid(text: str) -> bool:
        return bool(_VERSION_RE.match(text.strip()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Version):
            return NotImplemented
        return self._normal == other._normal

    def __lt__(self, other: "Version") -> bool:
        # Padded, not bare, tuple order: a negative part after a common
        # prefix must still sort below the implicit zero.
        mine, theirs = self._normal, other._normal
        width = max(len(mine), len(theirs))
        return mine + (0,) * (width - len(mine)) < theirs + (0,) * (
            width - len(theirs)
        )

    def __hash__(self) -> int:
        return hash(self._normal)

    def is_unversioned(self) -> bool:
        return not self.parts

    def __str__(self) -> str:
        return _dotted(self.parts)

    def __repr__(self) -> str:
        return f"Version({self})"


@lru_cache(maxsize=4096)
def _dotted(parts: tuple[int, ...]) -> str:
    # Memoised by value, not on the (many) Version objects: a fleet's
    # documents print the same few versions tens of thousands of times.
    return ".".join(str(p) for p in parts)


#: The version of "unversioned" keys (abstract types such as ``Server``).
UNVERSIONED = Version(())


@dataclass(frozen=True)
class VersionRange:
    """A half-open or closed interval of versions.

    ``lo``/``hi`` of ``None`` mean unbounded on that side.  Bounds are
    inclusive when the matching ``*_inclusive`` flag is set.  The default
    matches the common "at least 5.5 but before 6.0.29" idiom:
    lo-inclusive, hi-exclusive.
    """

    lo: Optional[Version] = None
    hi: Optional[Version] = None
    lo_inclusive: bool = True
    hi_inclusive: bool = False

    def contains(self, version: Version) -> bool:
        if self.lo is not None:
            if self.lo_inclusive:
                if version < self.lo:
                    return False
            elif version <= self.lo:
                return False
        if self.hi is not None:
            if self.hi_inclusive:
                if version > self.hi:
                    return False
            elif version >= self.hi:
                return False
        return True

    def __str__(self) -> str:
        lo = "[" if self.lo_inclusive else "("
        hi = "]" if self.hi_inclusive else ")"
        lo_s = str(self.lo) if self.lo is not None else "*"
        hi_s = str(self.hi) if self.hi is not None else "*"
        return f"{lo}{lo_s}, {hi_s}{hi}"


@dataclass(frozen=True, order=True)
class ResourceKey:
    """The globally unique identifier of a resource type: name + version.

    Equality and hashing read the name and the version's normalised
    parts directly, so a dictionary probe is one Python frame over C
    tuple and string operations.  The hash value is the one the dataclass
    default gave (``hash((name, version))``).
    """

    name: str
    version: Version

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self.name == other.name
            and self.version._normal == other.version._normal
        )

    def __hash__(self) -> int:
        return hash((self.name, self.version._normal))

    @staticmethod
    def parse(text: str) -> "ResourceKey":
        """Parse a display form such as ``"Tomcat 6.0.18"``.

        The version is the final whitespace-separated token if it looks
        like a dotted number; everything before it is the name (names may
        contain spaces).  Text without a version token parses as an
        *unversioned* key -- used for abstract types such as ``Server``.
        """
        text = text.strip()
        if not text:
            raise ResourceModelError("empty resource key")
        name, _, version = text.rpartition(" ")
        if name and Version.is_valid(version):
            return ResourceKey(name.strip(), Version.parse(version))
        return ResourceKey(text, UNVERSIONED)

    def display(self) -> str:
        if self.version.is_unversioned():
            return self.name
        return f"{self.name} {self.version}"

    def __str__(self) -> str:
        return self.display()


def select_versions(
    versions: Iterable[Version], version_range: VersionRange
) -> list[Version]:
    """Return the sorted subset of ``versions`` inside ``version_range``."""
    return sorted(v for v in set(versions) if version_range.contains(v))
