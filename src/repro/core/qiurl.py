"""The QI/URL map: query instances ↔ page URLs (paper §2.4).

Each row associates one query instance (a bound SELECT, stored as
canonical SQL text) with one page URL that was generated using its
results, plus the request metadata the invalidator needs.  The map is the
hand-off point between the sniffer (producer) and the invalidator
(consumer); the two sides are asynchronous, so the map supports cursors.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple


@dataclass(frozen=True)
class QIURLEntry:
    """One row of the QI/URL map.

    Attributes:
        entry_id: unique row id.
        sql: canonical text of the bound query instance.
        url_key: the page identifier (host + keyed parameters).
        servlet: name of the servlet that generated the page.
        mapped_at: when the sniffer created this row.
    """

    entry_id: int
    sql: str
    url_key: str
    servlet: str
    mapped_at: float


class QIURLMap:
    """Store of the live QI/URL rows with de-duplication.

    Rows are unique per (sql, url_key): re-generating the same page from
    the same query refreshes nothing.  Consumers read new rows through
    :meth:`read_new` (the invalidator is the only consumer in practice).
    Only live rows and the not-yet-read ones are retained: a dropped row
    is forgotten once it has been read, so memory follows the live pages,
    not the history of fills and ejects.
    """

    def __init__(self) -> None:
        #: Live rows, in the order they were added.
        self._by_pair: Dict[Tuple[str, str], QIURLEntry] = {}
        self._by_url: Dict[str, Set[Tuple[str, str]]] = {}
        self._ids = itertools.count(1)
        #: Rows added since the last :meth:`read_new`, dropped ones included.
        self._unread: List[QIURLEntry] = []

    def __len__(self) -> int:
        return len(self._by_pair)

    def add(
        self, sql: str, url_key: str, servlet: str, mapped_at: float = 0.0
    ) -> Optional[QIURLEntry]:
        """Add one row; returns None when the (sql, url) pair already exists."""
        pair = (sql, url_key)
        if pair in self._by_pair:
            return None
        entry = QIURLEntry(
            entry_id=next(self._ids),
            sql=sql,
            url_key=url_key,
            servlet=servlet,
            mapped_at=mapped_at,
        )
        self._unread.append(entry)
        self._by_pair[pair] = entry
        self._by_url.setdefault(url_key, set()).add(pair)
        return entry

    def _is_live(self, row: QIURLEntry) -> bool:
        """True when ``row`` is the current entry for its (sql, url) pair.

        Membership of the pair alone is not enough: after a drop and a
        re-add of the same pair, the dead predecessor row may still sit in
        the unread list with a live pair — only the row ``_by_pair``
        actually points at is live.
        """
        return self._by_pair.get((row.sql, row.url_key)) is row

    def read_new(self) -> List[QIURLEntry]:
        """Live rows added since the previous call (the consumer cursor)."""
        new_rows, self._unread = self._unread, []
        # Skip rows that were dropped (or superseded) after being added.
        return [row for row in new_rows if self._is_live(row)]

    def urls(self) -> List[str]:
        return sorted(self._by_url)

    def entries_for_url(self, url_key: str) -> List[QIURLEntry]:
        pairs = self._by_url.get(url_key, set())
        return [self._by_pair[pair] for pair in pairs]

    def drop_url(self, url_key: str) -> int:
        """Remove every row for a page (called after the page is ejected).

        The next time the page is generated and cached, the sniffer maps
        it afresh; keeping dead rows would only grow the invalidator's
        working set.
        """
        pairs = self._by_url.pop(url_key, set())
        for pair in pairs:
            del self._by_pair[pair]
        return len(pairs)

    def all_entries(self) -> List[QIURLEntry]:
        return list(self._by_pair.values())

    # -- checkpointing --------------------------------------------------------

    def snapshot_state(self) -> Dict:
        """JSON-compatible dump of the live rows and the consumer cursor.

        Dead rows (dropped after being appended) are not serialized;
        ``consumed`` counts how many of the *live* rows the consumer has
        already read, so a restored map re-delivers exactly the unread
        tail through :meth:`read_new`.
        """
        live = self.all_entries()
        # Unread rows are the newest: every other live row is consumed.
        consumed = len(live) - sum(1 for row in self._unread if self._is_live(row))
        return {
            "rows": [
                [row.sql, row.url_key, row.servlet, row.mapped_at]
                for row in live
            ],
            "consumed": consumed,
        }

    def restore_state(self, data: Dict) -> int:
        """Replace this map's contents with a snapshot; returns row count."""
        self._by_pair.clear()
        self._by_url.clear()
        self._ids = itertools.count(1)
        self._unread = []
        for sql, url_key, servlet, mapped_at in data.get("rows", []):
            self.add(sql, url_key, servlet, mapped_at)
        del self._unread[: int(data.get("consumed", 0))]
        return len(self._by_pair)
