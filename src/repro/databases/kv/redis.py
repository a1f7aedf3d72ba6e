"""Redis-like in-memory key/value store.

The version-store algorithms of §4.2 run as atomic LUA scripts on Redis
to avoid round trips and to simplify the 2PC. :meth:`RedisLike.eval`
reproduces that: the callable executes under the store lock, seeing and
mutating state atomically.

``crash()`` wipes memory, modelling the version-store deaths that trigger
generation bumps (publisher side) or partial bootstraps (subscriber side)
in §4.4.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List

from repro.databases.base import Database
from repro.errors import FaultInjected


class RedisLike(Database):
    """Strings and hashes, plus atomic scripts."""

    engine_family = "redis"
    supports_returning = True

    def __init__(self, name: str, **kwargs: Any) -> None:
        super().__init__(name, **kwargs)
        self._data: Dict[str, Any] = {}
        self.script_calls = 0

    # -- failure model -----------------------------------------------------

    def crash(self) -> None:
        """Lose all state and refuse service until :meth:`restart`."""
        with self._lock:
            self._data.clear()
            self.faults.down = True

    def restart(self) -> None:
        with self._lock:
            self.faults.down = False

    @property
    def is_down(self) -> bool:
        return self.faults.down

    def _check_up(self) -> None:
        """Refuse an op that charges no read or write (those check
        ``faults.down`` themselves)."""
        if self.faults.down:
            raise FaultInjected(f"redis {self.name!r} is down")

    # -- basic ops ------------------------------------------------------------

    def get(self, key: str) -> Any:
        with self._lock:
            self._charge_read()
            return self._data.get(key)

    def set(self, key: str, value: Any) -> None:
        with self._lock:
            self._charge_write()
            self._data[key] = value

    def delete(self, key: str) -> bool:
        with self._lock:
            self._charge_write()
            return self._data.pop(key, None) is not None

    # -- hashes ----------------------------------------------------------------

    def hget(self, key: str, field: str) -> Any:
        with self._lock:
            self._charge_read()
            table = self._data.get(key)
            return table.get(field) if isinstance(table, dict) else None

    def hset(self, key: str, field: str, value: Any) -> None:
        with self._lock:
            self._charge_write()
            table = self._data.setdefault(key, {})
            table[field] = value

    def hgetall(self, key: str) -> Dict[str, Any]:
        with self._lock:
            self._charge_read()
            table = self._data.get(key)
            return dict(table) if isinstance(table, dict) else {}

    # -- atomic scripts ----------------------------------------------------------

    def eval(self, script: Callable[["RedisLike"], Any]) -> Any:
        """Run ``script(self)`` atomically (LUA-script equivalent).

        The script may call any method on the store; the RLock makes the
        whole execution one atomic step relative to other clients.
        """
        with self._lock:
            self._check_up()
            self.script_calls += 1
            return script(self)

    def keys(self, prefix: str = "") -> List[str]:
        with self._lock:
            self._check_up()
            return sorted(k for k in self._data if k.startswith(prefix))

    def flushall(self) -> None:
        with self._lock:
            self._check_up()
            self._data.clear()

    def dbsize(self) -> int:
        with self._lock:
            self._check_up()
            return len(self._data)
