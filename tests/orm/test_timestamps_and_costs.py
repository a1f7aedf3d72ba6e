"""Automatic timestamps and the engines' operation counters."""

from repro.clock import VirtualClock
from repro.core import Ecosystem
from repro.databases.document import MongoLike
from repro.orm import Field, Model, bind_model


class TestAutomaticTimestamps:
    def make(self, clock=None):
        eco = Ecosystem(clock=clock)
        svc = eco.service("svc", database=MongoLike("m"))

        @svc.model()
        class Note(Model):
            body = Field(str)
            created_at = Field(float)
            updated_at = Field(float)

        return Note

    def test_created_and_updated_set_on_create(self):
        clock = VirtualClock(start=100.0)
        Note = self.make(clock)
        note = Note.create(body="x")
        assert note.created_at == 100.0
        assert note.updated_at == 100.0

    def test_updated_moves_created_stays(self):
        clock = VirtualClock(start=100.0)
        Note = self.make(clock)
        note = Note.create(body="x")
        clock.advance(50)
        note.update(body="y")
        assert note.created_at == 100.0
        assert note.updated_at == 150.0

    def test_explicit_created_at_respected(self):
        Note = self.make(VirtualClock(start=5.0))
        note = Note.create(body="x", created_at=1.0)
        assert note.created_at == 1.0

    def test_models_without_timestamp_fields_unaffected(self):
        class Bare(Model):
            body = Field(str)

        bind_model(Bare, MongoLike("m2"))
        bare = Bare.create(body="x")
        assert "created_at" not in bare.to_attributes()

    def test_standalone_model_uses_wall_clock(self):
        class Stamped(Model):
            created_at = Field(float)
            updated_at = Field(float)

        bind_model(Stamped, MongoLike("m3"))
        stamped = Stamped.create()
        assert stamped.created_at is not None and stamped.created_at > 0


class TestEngineCostModel:
    def test_stats_snapshot_and_reset(self):
        db = MongoLike("m")
        db.insert_one("c", {"a": 1})
        db.find("c")
        assert (db.stats.writes, db.stats.reads) == (1, 1)
        db.stats.reset()
        assert (db.stats.writes, db.stats.reads) == (0, 0)
