"""Mapper tests: identical CRUD semantics across all five engine families."""

import pytest

from repro.databases.columnar import CassandraLike
from repro.databases.document import MongoLike
from repro.databases.graph import Neo4jLike
from repro.databases.relational import MySQLLike, PostgresLike
from repro.databases.search import ElasticsearchLike, Match
from repro.orm import Field, Model, bind_model
from repro.orm.mapper import ReadEvent, WriteEvent, WriteIntent


ENGINE_FACTORIES = [
    lambda: PostgresLike("pg"),
    lambda: MySQLLike("my"),
    lambda: MongoLike("mongo"),
    lambda: CassandraLike("cass"),
    lambda: ElasticsearchLike("es"),
    lambda: Neo4jLike("neo"),
]
ENGINE_IDS = ["postgresql", "mysql", "mongodb", "cassandra", "elasticsearch", "neo4j"]


@pytest.fixture(params=ENGINE_FACTORIES, ids=ENGINE_IDS)
def db(request):
    return request.param()


def make_model(db):
    class Article(Model):
        title = Field(str)
        views = Field(int)

    bind_model(Article, db)
    return Article


class TestUniformCRUD:
    """The common object API of §2, exercised on every engine family."""

    def test_create_find(self, db):
        Article = make_model(db)
        a = Article.create(title="hello", views=1)
        assert a.id is not None
        found = Article.find(a.id)
        assert (found.title, found.views) == ("hello", 1)

    def test_update(self, db):
        Article = make_model(db)
        a = Article.create(title="hello", views=1)
        a.update(views=2)
        assert Article.find(a.id).views == 2

    def test_destroy(self, db):
        Article = make_model(db)
        a = Article.create(title="hello", views=1)
        b = Article.create(title="other", views=2)
        a.destroy()
        assert Article.count() == 1
        assert Article.find(b.id).title == "other"

    def test_where_and_count(self, db):
        Article = make_model(db)
        Article.create(title="x", views=1)
        Article.create(title="x", views=2)
        Article.create(title="y", views=3)
        assert len(Article.where(title="x")) == 2
        assert Article.count(title="y") == 1

    def test_where_order_limit(self, db):
        Article = make_model(db)
        for views in (3, 1, 2):
            Article.create(title="t", views=views)
        top = Article.where(_order_by=("views", "desc"), _limit=1)
        assert top[0].views == 3

    def test_explicit_id_roundtrip(self, db):
        Article = make_model(db)
        a = Article(title="pinned", views=0)
        a.id = 42
        a.save()
        assert Article.find(42).title == "pinned"


class RecordingInterceptor:
    def __init__(self):
        self.writes = []
        self.reads = []

    def write(self, intent: WriteIntent, perform):
        row = perform()
        self.writes.append(WriteEvent(intent.kind, intent.model_cls, row))
        return row

    def read(self, event: ReadEvent):
        self.reads.append(event)


class TestInterception:
    def test_writes_and_reads_intercepted(self, db):
        Article = make_model(db)
        interceptor = RecordingInterceptor()
        Article.__mapper__.interceptor = interceptor

        a = Article.create(title="hello", views=1)
        a.update(views=2)
        Article.find(a.id)
        Article.where(title="hello")
        a.destroy()

        kinds = [w.kind for w in interceptor.writes]
        assert kinds == ["create", "update", "delete"]
        # The written rows carry the full final state including the id —
        # the marshalling source for Synapse (§4.1).
        assert interceptor.writes[0].row["id"] == a.id
        assert interceptor.writes[1].row["views"] == 2
        assert interceptor.writes[2].row["id"] == a.id
        # find + where each registered read dependencies on returned rows.
        assert len(interceptor.reads) == 2
        assert interceptor.reads[0].rows[0]["id"] == a.id

    def test_count_is_not_a_read_dependency(self, db):
        Article = make_model(db)
        interceptor = RecordingInterceptor()
        Article.__mapper__.interceptor = interceptor
        Article.create(title="a", views=0)
        interceptor.reads.clear()
        Article.count()
        assert interceptor.reads == []


class TestEngineSpecifics:
    def test_mysql_readback_matches_returning(self):
        """The no-RETURNING read-back protocol yields identical rows."""
        pg_articles = make_model(PostgresLike("pg"))
        my_articles = make_model(MySQLLike("my"))
        a = pg_articles.create(title="t", views=1)
        b = my_articles.create(title="t", views=1)
        assert a.to_attributes() == b.to_attributes()

    def test_search_mapper_supports_fulltext(self):
        db = ElasticsearchLike("es")

        class Post(Model):
            __analyzers__ = {"body": "simple"}
            body = Field(str)

        bind_model(Post, db)
        Post.create(body="Cats are GREAT")
        Post.create(body="dogs are fine")
        hits = db.search("posts", Match("body", "cats"))
        assert len(hits) == 1

    def test_graph_mapper_nodes_carry_label(self):
        db = Neo4jLike("neo")
        Article = make_model(db)
        a = Article.create(title="t", views=0)
        assert db.find_nodes("Article", {"title": "t"})[0]["id"] == a.id

    def test_cassandra_update_is_upsert_merge(self):
        db = CassandraLike("cass")
        Article = make_model(db)
        a = Article.create(title="t", views=1)
        a.update(views=2)
        row = db.get_by_id("articles", a.id)
        assert row["title"] == "t" and row["views"] == 2

    def test_document_mapper_translates_ids(self):
        db = MongoLike("m")
        Article = make_model(db)
        a = Article.create(title="t", views=1)
        (doc,) = db.find("articles", {"title": "t"})
        assert doc["_id"] == a.id
        assert "id" not in doc
