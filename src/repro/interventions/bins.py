"""Deterministic account binning (paper Section 6.3).

"We deterministically partition Instagram accounts into 10 equally-sized
bins. We assign separate bins for each countermeasure response (block
and delay) and another for a control."
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass

from repro.platform.countermeasures import CountermeasureDecision
from repro.platform.models import AccountId

BIN_COUNT = 10


@functools.lru_cache(maxsize=None)
def account_bin(account_id: AccountId, bins: int = BIN_COUNT) -> int:
    """Stable hash-based bin in [0, bins).

    Hash-based rather than modulo-of-id so that bin membership is not
    correlated with account age (ids are allocated sequentially).
    Memoized: a pure function consulted on every policy decision, over
    account ids that are small sequential ints, so the cache is bounded
    by the largest world built in the process.
    """
    if bins < 1:
        raise ValueError("bins must be positive")
    digest = hashlib.blake2b(str(int(account_id)).encode("ascii"), digest_size=8).digest()
    return int.from_bytes(digest, "big") % bins


@dataclass(frozen=True)
class BinAssignment:
    """Which bins receive which countermeasure."""

    block_bins: frozenset[int] = frozenset()
    delay_bins: frozenset[int] = frozenset()
    control_bins: frozenset[int] = frozenset({0})
    bins: int = BIN_COUNT

    def __post_init__(self):
        all_assigned = [*self.block_bins, *self.delay_bins, *self.control_bins]
        if len(all_assigned) != len(set(all_assigned)):
            raise ValueError("a bin cannot carry two treatments")
        for b in all_assigned:
            if not 0 <= b < self.bins:
                raise ValueError(f"bin {b} out of range")

    def treatment_of(self, account_id: AccountId) -> CountermeasureDecision:
        """The countermeasure this account's bin receives."""
        bin_index = account_bin(account_id, self.bins)
        if bin_index in self.block_bins:
            return CountermeasureDecision.BLOCK
        if bin_index in self.delay_bins:
            return CountermeasureDecision.DELAY_REMOVE
        return CountermeasureDecision.ALLOW

    def group_of(self, account_id: AccountId) -> str:
        """Human-readable experiment group label for metrics."""
        bin_index = account_bin(account_id, self.bins)
        if bin_index in self.block_bins:
            return "block"
        if bin_index in self.delay_bins:
            return "delay"
        if bin_index in self.control_bins:
            return "control"
        return "untreated"

    @staticmethod
    def narrow(block_bin: int = 1, delay_bin: int = 2, control_bin: int = 0) -> "BinAssignment":
        """The narrow design: one bin per treatment, ~10% of accounts each."""
        return BinAssignment(
            block_bins=frozenset({block_bin}),
            delay_bins=frozenset({delay_bin}),
            control_bins=frozenset({control_bin}),
        )

    @staticmethod
    def broad_delay(control_bin: int = 0) -> "BinAssignment":
        """Broad design, week one: delay for 90%, same 10% control."""
        treated = frozenset(range(BIN_COUNT)) - {control_bin}
        return BinAssignment(delay_bins=treated, control_bins=frozenset({control_bin}))

    @staticmethod
    def broad_block(control_bin: int = 0) -> "BinAssignment":
        """Broad design, week two: block for 90%, same 10% control."""
        treated = frozenset(range(BIN_COUNT)) - {control_bin}
        return BinAssignment(block_bins=treated, control_bins=frozenset({control_bin}))
