"""Directory-based coherence state.

The LLC is inclusive and carries an in-directory sharer/owner record per
line (MESI collapsed to what the timing model needs: *who may have a
private copy* and *who owns it modified*). The hierarchy consults the
directory on every LLC access to charge invalidation and ping-pong
costs -- the costs that remote memory operations / task offload
eliminate for heavily shared data (Sec. II-A, Sec. IV).
"""


class DirectoryEntry:
    """Sharers and owner for one line."""

    __slots__ = ("sharers", "owner")

    def __init__(self):
        #: Tiles that may hold the line in a private cache (L1/L2/engine L1d).
        self.sharers = set()
        #: Tile holding the line modified, or ``None``.
        self.owner = None

    def __repr__(self):
        return f"DirectoryEntry(owner={self.owner}, sharers={sorted(self.sharers)})"


class Directory:
    """The (logically distributed, physically global here) LLC directory."""

    def __init__(self, stats):
        self.stats = stats
        self._entries = {}

    def peek(self, line):
        """The entry if it exists, without creating one."""
        return self._entries.get(line)

    def owner_of(self, line):
        ent = self._entries.get(line)
        return ent.owner if ent else None

    def sharers_of(self, line):
        ent = self._entries.get(line)
        return set(ent.sharers) if ent else set()

    def record_fill(self, line, tile, exclusive):
        """A private cache at ``tile`` filled ``line``."""
        ent = self._entries.get(line)
        if ent is None:
            ent = self._entries[line] = DirectoryEntry()
        ent.sharers.add(tile)
        if exclusive:
            ent.owner = tile
        elif ent.owner == tile:
            # A read re-fill after losing ownership keeps it shared.
            ent.owner = None

    def record_private_eviction(self, line, tile):
        """``tile`` no longer holds ``line`` in any private cache."""
        ent = self._entries.get(line)
        if ent is None:
            return
        ent.sharers.discard(tile)
        if ent.owner == tile:
            ent.owner = None
        if not ent.sharers and ent.owner is None:
            del self._entries[line]

    def drop(self, line):
        """Forget all state for ``line`` (LLC eviction completed)."""
        self._entries.pop(line, None)
