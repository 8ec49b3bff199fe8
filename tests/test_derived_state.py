"""One owner for a document version's derived state.

The structural summary (with its statistics), tag index and arena file
hang off ``doc.derived`` (:mod:`repro.xmlkit.derived`): carried from the
previous version when it had them (patched by each update), otherwise
built by their first reader, outside every shared lock, and dropped by
:meth:`Document.drop_derived` alone.  The per-surface halves
of that contract live with their surfaces (arena file across updates:
``test_process_backend``; retirement: ``test_update_fingerprint``; the
plan reading the right document: ``test_engine``); here are the
cross-cutting ones.
"""

import ast
import threading
from pathlib import Path

import pytest

import repro
from repro.engine.database import Database
from repro.xmlkit import derived as derived_module
from repro.xmlkit import parse
from repro.xmlkit.index import TagIndex

SRC = Path(repro.__file__).parent

LIBRARY = "<library>" + "".join(
    f'<shelf genre="g{shelf}">' + "".join(
        f'<book id="b{shelf * 20 + i}"><author>a{i % 5}</author>'
        f"<title>t{shelf * 20 + i}</title><price>{(shelf * 20 + i) % 97}"
        "</price></book>" for i in range(20)) + "</shelf>"
    for shelf in range(5)) + "</library>"
#: The four texts one ``snapshot_churn`` operation reads after a commit.
READS = ("//book/title",
         "//shelf[@genre = 'g3']/book[price > 60]/title",
         "for $b in //book where $b/price < 30 return $b/title",
         "//book[@id = 'b77']/title")


@pytest.fixture
def builds(monkeypatch):
    """Every O(n) build of a derived structure, as ``(kind, doc)``."""
    log = []
    real_summary = derived_module.build_summary

    def build_summary(doc, *args, **kwargs):
        log.append(("structure", doc))
        return real_summary(doc, *args, **kwargs)

    monkeypatch.setattr(derived_module, "build_summary", build_summary)
    real_build = TagIndex.build

    def build(index):
        if not index.built:
            log.append(("index", index.doc))
        return real_build(index)

    monkeypatch.setattr(TagIndex, "build", build)
    return log


def test_built_once_per_version_and_never_after_retirement(builds):
    with repro.connect(LIBRARY) as db:
        service = db.serve(workers=1)
        for text in READS:
            service.query(text)
        retired = db.doc
        assert retired._derived._dataguide is not None
        assert retired._derived.index.built
        batch = service.updater()
        batch.insert_subtree(
            batch.doc.root.children[0],
            parse("<book id='fresh'><title>fresh</title><price>5</price>"
                  "</book>").root)
        batch.commit()
        del builds[:]
        for text in READS:
            for _ in range(2):          # fresh snapshot, then result cache
                served = service.query(text)
        assert served.snapshot.doc is batch.doc
        assert retired._derived is None
        # The base had its summary and postings, so the new version
        # inherits them patched: no structural pass, no index build.
        assert builds == []
        assert batch.doc.derived.stats is batch.doc.derived.summary.stats
        assert batch.doc.derived.index.built


def test_a_fork_shares_the_base_serialized_text_column():
    with repro.connect(LIBRARY) as db:
        base = db.doc
        text = db.query("//book/title").serialize()
        column = base._derived._xml
        assert column is not None           # built by the first serializer
        batch = db.updater()
        assert batch.doc._derived._xml is column
        assert db.query("//book/title").serialize() == text
        batch.abort()


def test_a_result_serialized_after_its_snapshot_retired_rebuilds_nothing():
    with repro.connect(LIBRARY) as db:
        result = db.query("for $b in //book[price < 3] return "
                          "<r>{$b/title}{$b/@id}</r>")
        plain = db.query("//shelf[@genre = 'g1']/book[price < 30]")
        texts = (result.serialize(), plain.serialize())
        retired = db.doc
        with db.updater() as batch:
            batch.delete_subtree(batch.doc.root.children[0])
        assert retired._derived is None
        assert (result.serialize(), plain.serialize()) == texts
        assert retired._derived is None


def test_database_close_releases_the_current_snapshots_arena_file(
        monkeypatch, tmp_path):
    """After a commit the current snapshot is a fork the database owns:
    closing the service leaves the version and its
    arena file with the database, and ``Database.close`` drops it."""
    monkeypatch.setattr(derived_module.tempfile, "tempdir", str(tmp_path))
    with repro.connect(LIBRARY) as db:
        service = db.serve(workers=1)
        batch = service.updater()
        batch.insert_subtree(batch.doc.root.children[0],
                             parse("<book><title>fresh</title></book>").root)
        batch.commit()
        served = service.query("//book/title", strategy="parallel",
                               executor="processes:2")
        assert served.snapshot.doc is batch.doc and len(served.items) == 101
        assert len(list(tmp_path.glob("repro-arena-*.btra"))) == 1
        service.close()
        assert db.doc is batch.doc
        assert len(list(tmp_path.glob("repro-arena-*.btra"))) == 1
    assert not list(tmp_path.glob("repro-arena-*.btra"))


@pytest.mark.parametrize("first_read", [
    # The statistics (what ``compute_stats`` returns) and the summary
    # come from the one structural pass; either reader may go first.
    pytest.param(lambda derived: derived.stats, id="compute_stats"),
    pytest.param(lambda derived: derived.summary, id="build_summary"),
])
def test_catalog_lock_is_not_held_during_an_o_n_build(monkeypatch,
                                                      first_read):
    started, release = threading.Event(), threading.Event()
    real = derived_module.build_summary
    passes = []

    def blocking(doc, *args, **kwargs):
        passes.append(doc)
        started.set()
        assert release.wait(30)
        return real(doc, *args, **kwargs)

    monkeypatch.setattr(derived_module, "build_summary", blocking)
    db = Database("<r><a/></r>")
    first = db.current()
    answers, done = [], threading.Event()

    def pin_unpin():
        with db.reading() as (snapshot, _engine):
            assert snapshot is first
        done.set()

    def read_then_query():
        engine = db.engine_for(first)
        first_read(engine.doc.derived)
        answers.append(engine.query("//a").serialize())

    reader = threading.Thread(target=read_then_query)
    other = threading.Thread(target=pin_unpin, daemon=True)
    reader.start()
    try:
        assert started.wait(30)
        other.start()
        assert done.wait(10), "a second reader's pin/unpin waited " \
            "behind a structural pass"
    finally:
        release.set()
        reader.join(30)
    assert not reader.is_alive() and answers == ["<a/>"]
    assert passes == [first.doc]


def _terminal_name(node: ast.AST) -> str:
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", "")


def test_engine_serve_and_physical_keep_no_copy_of_derived_state():
    """Under ``engine/``, ``serve/`` and ``physical/`` nothing builds a
    derived structure itself and nothing writes a private attribute of
    an engine it does not own: the one owner is ``doc.derived``."""
    offenders = []
    for package in ("engine", "serve", "physical"):
        for path in sorted((SRC / package).rglob("*.py")):
            where = f"{path.relative_to(SRC)}:"
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Call) and _terminal_name(node.func) \
                        in ("compute_stats", "build_summary", "TagIndex"):
                    offenders.append(f"{where}{node.lineno} builds "
                                     f"{_terminal_name(node.func)}")
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target] if isinstance(
                               node, (ast.AugAssign, ast.AnnAssign)) else [])
                for target in targets:
                    if isinstance(target, ast.Attribute) \
                            and target.attr.startswith("_") \
                            and "engine" in _terminal_name(target.value):
                        offenders.append(f"{where}{node.lineno} writes "
                                         f"engine.{target.attr}")
    assert not offenders, offenders
