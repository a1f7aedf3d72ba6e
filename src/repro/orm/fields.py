"""Field descriptors for model attributes.

``Field`` is a persisted attribute. ``VirtualField`` is the paper's
*virtual attribute* (§3.1): a programmer-provided getter/setter pair that
is not in the DB schema but can be published and subscribed, used to map
mismatching data types across engines (Example 3).
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Type


class Field:
    """A persisted model attribute.

    ``default`` may be a value or a zero-argument callable (evaluated per
    instance). ``py_type`` is advisory: mappers use it to derive column
    types on schema-ful engines.
    """

    def __init__(
        self,
        py_type: Optional[Type] = None,
        default: Any = None,
        nullable: bool = True,
    ) -> None:
        self.py_type = py_type
        self.default = default
        self.nullable = nullable
        self.name: str = ""  # assigned by the metaclass

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def default_value(self) -> Any:
        if callable(self.default):
            return self.default()
        return self.default

    def __get__(self, instance: Any, owner: type) -> Any:
        if instance is None:
            return self
        return instance._attributes.get(self.name)

    def __set__(self, instance: Any, value: Any) -> None:
        instance._write_attribute(self.name, value)

    def __repr__(self) -> str:
        return f"<Field {self.name}>"


class VirtualField:
    """A non-persisted attribute backed by getter/setter methods.

    By convention the model defines ``<name>_get(self)`` and/or
    ``<name>_set(self, value)``. Publishing a virtual attribute calls the
    getter; a subscriber receiving it calls the setter.
    """

    def __init__(
        self,
        getter: Optional[Callable] = None,
        setter: Optional[Callable] = None,
    ) -> None:
        self.getter = getter
        self.setter = setter
        self.name: str = ""

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def readable_on(self, owner: type) -> bool:
        """Whether instances of ``owner`` can read this attribute."""
        return self.getter is not None or hasattr(owner, f"{self.name}_get")

    def _resolve_getter(self, instance: Any) -> Optional[Callable]:
        if self.getter is not None:
            return lambda: self.getter(instance)
        method = getattr(instance, f"{self.name}_get", None)
        return method

    def _resolve_setter(self, instance: Any) -> Optional[Callable]:
        if self.setter is not None:
            return lambda value: self.setter(instance, value)
        return getattr(instance, f"{self.name}_set", None)

    def __get__(self, instance: Any, owner: type) -> Any:
        if instance is None:
            return self
        getter = self._resolve_getter(instance)
        if getter is None:
            raise AttributeError(
                f"virtual attribute {self.name!r} has no getter "
                f"(define {self.name}_get)"
            )
        return getter()

    def __set__(self, instance: Any, value: Any) -> None:
        setter = self._resolve_setter(instance)
        if setter is None:
            raise AttributeError(
                f"virtual attribute {self.name!r} has no setter "
                f"(define {self.name}_set)"
            )
        setter(value)

    def __repr__(self) -> str:
        return f"<VirtualField {self.name}>"
