"""repro — a Python reproduction of Synapse (EuroSys 2015).

Public surface::

    from repro import Ecosystem, Model, Field

    eco = Ecosystem()
    pub = eco.service("pub1", database=...)

    @pub.model(publish=["name"])
    class User(Model):
        name = Field(str)

See README.md for the full tour and DESIGN.md for the paper mapping.
"""

from repro.core import CAUSAL, GLOBAL, WEAK, Ecosystem, Service
from repro.orm import (
    BelongsTo,
    Field,
    Model,
    VirtualField,
    after_create,
    after_destroy,
    after_save,
    after_update,
    before_create,
    before_destroy,
    before_save,
    before_update,
)

__version__ = "1.0.0"

__all__ = [
    "Ecosystem",
    "Service",
    "GLOBAL",
    "CAUSAL",
    "WEAK",
    "Model",
    "Field",
    "VirtualField",
    "BelongsTo",
    "before_create",
    "after_create",
    "before_update",
    "after_update",
    "before_destroy",
    "after_destroy",
    "before_save",
    "after_save",
    "__version__",
]
