"""Model associations: ``belongs_to``.

``BelongsTo`` implicitly declares the ``<name>_id`` foreign-key field
(added by the model metaclass) and resolves through the model registry,
so associated models may live in the same service regardless of engine.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.errors import ORMError


def snake_case(name: str) -> str:
    out = []
    for i, ch in enumerate(name):
        if ch.isupper() and i > 0:
            out.append("_")
        out.append(ch.lower())
    return "".join(out)


class BelongsTo:
    """``author = BelongsTo("User")`` adds an ``author_id`` field and a
    lazy ``author`` accessor."""

    def __init__(self, target: str, foreign_key: Optional[str] = None) -> None:
        self.target = target
        self.name: str = ""
        self.foreign_key = foreign_key

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name
        if self.foreign_key is None:
            self.foreign_key = f"{name}_id"

    def _target_cls(self, instance: Any) -> type:
        registry = instance._registry
        target = registry.get(self.target)
        if target is None:
            raise ORMError(
                f"association {self.name!r}: model {self.target!r} not registered"
            )
        return target

    def __get__(self, instance: Any, owner: type) -> Any:
        if instance is None:
            return self
        fk_value = instance._attributes.get(self.foreign_key)
        if fk_value is None:
            return None
        return self._target_cls(instance).find_by(id=fk_value)

    def __set__(self, instance: Any, value: Any) -> None:
        instance._write_attribute(self.foreign_key, None if value is None else value.id)

