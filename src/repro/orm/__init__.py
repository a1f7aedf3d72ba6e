"""MVC-style ORM layer (ActiveRecord/Mongoid/... stand-in).

The paper's replication mechanism lives at the ORM abstraction: models
expose create/read/update/delete plus *active model* callbacks, and each
engine family gets a mapper translating model attributes to its storage
layout. Synapse intercepts at the mapper <-> engine boundary.
"""

from repro.orm.callbacks import (
    after_create,
    after_destroy,
    after_save,
    after_update,
    before_create,
    before_destroy,
    before_save,
    before_update,
)
from repro.orm.fields import Field, VirtualField
from repro.orm.associations import BelongsTo
from repro.orm.mapper import Mapper, ReadEvent, WriteEvent, mapper_for
from repro.orm.model import Model, bind_model

__all__ = [
    "Model",
    "Field",
    "VirtualField",
    "BelongsTo",
    "Mapper",
    "mapper_for",
    "bind_model",
    "WriteEvent",
    "ReadEvent",
    "before_create",
    "after_create",
    "before_update",
    "after_update",
    "before_destroy",
    "after_destroy",
    "before_save",
    "after_save",
]
