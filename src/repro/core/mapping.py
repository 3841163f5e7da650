"""LLC object mapping and DRAM object compaction (Sec. VI-A3, Fig. 14).

Two mechanisms, both keyed on the allocator's pool records:

1. **LLC object mapping** -- objects padded to ``2^k`` cache lines have
   the ``k`` low line-index bits ignored by the LLC bank-index function,
   so every line of an object maps to the same bank. (Page-table/L2-tag
   bits carry ``k`` in hardware; here the registry answers directly.)

2. **DRAM object compaction** -- objects are *padded* in cache-address
   space but *packed* in DRAM-address space. A translation entry per
   pool (cache base/bound, DRAM base, object size, padded size) converts
   cache lines to the DRAM lines that actually hold their bytes. The
   translation is pure offset arithmetic, exactly as in Fig. 14.
"""

import bisect
from dataclasses import dataclass
from functools import cached_property


@dataclass(frozen=True)
class TranslationEntry:
    """One pool's cache<->DRAM mapping record (25 B of state in hardware)."""

    cache_base: int
    cache_bound: int
    dram_base: int
    object_size: int
    padded_size: int
    line_size: int = 64

    def contains(self, addr):
        return self.cache_base <= addr < self.cache_bound

    def to_dram(self, addr):
        """DRAM byte address backing cache byte address ``addr``.

        Padding bytes carry no data; they are mapped (harmlessly) onto
        the last byte of their object so ranges stay monotonic.
        """
        offset = addr - self.cache_base
        index, within = divmod(offset, self.padded_size)
        within = min(within, self.object_size - 1)
        return self.dram_base + index * self.object_size + within

    @cached_property
    def bank_shift(self):
        """Low line-index bits ignored by the bank-index function.

        Computed on first use and kept on the instance: every LLC access
        to a mapped pool asks for it.
        """
        lines = max(1, self.padded_size // self.line_size)
        return max(0, lines.bit_length() - 1)


class MappingRegistry:
    """All live translation entries, searchable by cache address.

    Implements the two hierarchy hooks: ``bank_shift(line)`` and
    ``translate(line)``. Entries are kept sorted by base address for
    bisect lookup (pools never overlap).
    """

    def __init__(self, line_size=64):
        self.line_size = line_size
        self._bases = []
        self._entries = []

    def register(self, entry):
        if entry.cache_bound <= entry.cache_base:
            raise ValueError("empty translation entry")
        idx = bisect.bisect_left(self._bases, entry.cache_base)
        prev_overlap = idx > 0 and self._entries[idx - 1].cache_bound > entry.cache_base
        next_overlap = (
            idx < len(self._entries) and entry.cache_bound > self._bases[idx]
        )
        if prev_overlap or next_overlap:
            raise ValueError(f"translation entry overlaps an existing pool: {entry}")
        self._bases.insert(idx, entry.cache_base)
        self._entries.insert(idx, entry)
        return entry

    def unregister(self, entry):
        idx = bisect.bisect_left(self._bases, entry.cache_base)
        if idx < len(self._entries) and self._entries[idx] is entry:
            del self._bases[idx]
            del self._entries[idx]
            return
        raise KeyError(f"entry not registered: {entry}")

    def find(self, addr):
        """The entry covering byte address ``addr``, or ``None``."""
        idx = bisect.bisect_right(self._bases, addr) - 1
        if idx >= 0:
            entry = self._entries[idx]
            if entry.cache_base <= addr < entry.cache_bound:
                return entry
        return None

    def __len__(self):
        return len(self._entries)

    # ------------------------------------------------------------------
    # hierarchy hooks
    # ------------------------------------------------------------------
    def bank_shift(self, line):
        entry = self.find(line * self.line_size)
        return entry.bank_shift if entry else 0

    def translate(self, line):
        """DRAM line numbers backing cache line ``line``.

        Without a mapping entry, identity. With one, the (padded) cache
        line's bytes map onto a compact, possibly narrower DRAM byte
        range; because the mapping is monotonic, the endpoints bound it.
        """
        lo = line * self.line_size
        entry = self.find(lo)
        if entry is None:
            return (line,)
        hi = min(lo + self.line_size - 1, entry.cache_bound - 1)
        dram_lo = entry.to_dram(lo) // self.line_size
        dram_hi = entry.to_dram(hi) // self.line_size
        return tuple(range(dram_lo, dram_hi + 1))
