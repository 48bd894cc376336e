"""IPv4 address bookkeeping for the network substrate.

Addresses are plain integers internally; :func:`format_ipv4` renders the
dotted-quad form for logs and reports. Prefixes are (base, prefix_len)
pairs and allocation is sequential within a prefix, which keeps the
space deterministic under a fixed scenario seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field


def format_ipv4(addr: int) -> str:
    """Render an integer address as dotted-quad text."""
    if not 0 <= addr <= 0xFFFFFFFF:
        raise ValueError(f"address out of IPv4 range: {addr}")
    return ".".join(str((addr >> shift) & 0xFF) for shift in (24, 16, 8, 0))


@dataclass(frozen=True)
class Prefix:
    """An IPv4 prefix: ``base`` is the network address, ``length`` the mask."""

    base: int
    length: int

    def __post_init__(self):
        if not 0 <= self.length <= 32:
            raise ValueError(f"invalid prefix length {self.length}")
        if self.base & (self.size - 1):
            raise ValueError("prefix base is not aligned to its length")

    @property
    def size(self) -> int:
        return 1 << (32 - self.length)

    def contains(self, addr: int) -> bool:
        return self.base <= addr < self.base + self.size

    def __str__(self) -> str:
        return f"{format_ipv4(self.base)}/{self.length}"


@dataclass
class IPAddressSpace:
    """Sequential allocator over a set of disjoint prefixes.

    Each allocation returns a fresh address; the allocator refuses to
    hand out more addresses than a prefix holds.
    """

    prefixes: list[Prefix] = field(default_factory=list)
    _next_offset: dict[Prefix, int] = field(default_factory=dict)

    def add_prefix(self, prefix: Prefix) -> None:
        """Register a prefix; overlapping prefixes are rejected."""
        for existing in self.prefixes:
            if existing.contains(prefix.base) or prefix.contains(existing.base):
                raise ValueError(f"prefix {prefix} overlaps {existing}")
        self.prefixes.append(prefix)
        self._next_offset[prefix] = 0

    def allocate(self, prefix: Prefix) -> int:
        """Allocate the next free address inside ``prefix``."""
        if prefix not in self._next_offset:
            raise KeyError(f"unknown prefix {prefix}")
        offset = self._next_offset[prefix]
        if offset >= prefix.size:
            raise RuntimeError(f"prefix {prefix} exhausted")
        self._next_offset[prefix] = offset + 1
        return prefix.base + offset

    def owner_prefix(self, addr: int) -> Prefix:
        """Return the registered prefix containing ``addr``."""
        for prefix in self.prefixes:
            if prefix.contains(addr):
                return prefix
        raise KeyError(f"address {format_ipv4(addr)} is outside all prefixes")
