"""The five workloads.  Each isolates different layers (see README.md).

A workload builds the system under test in :meth:`setup` (that is what
``setup_s`` times), hands out one operation at a time through
:meth:`op` (untimed: picks text and parameters) as a callable the
harness times, and answers :meth:`oracle` for a key — the navigational
evaluator (``strategy="naive"``) on an engine that shares nothing with
the system under test but the document.

The same op code runs traced and untraced: untraced phases pass
:data:`spans.NULL_RECORDER`.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import subprocess
import sys
from pathlib import Path

from common import BENCH_DIR, peak_rss_kb
from inputs import TABLE3_DATASETS
from spans import OP

F1 = "for $b in //book where $b/price < {} return $b/title"
F2L = ("for $s in //shelf, $b in $s/book where $s/@genre = 'g3' "
       "and $b/price < 30 return <hit>{$b/title}</hit>")
#: 41 x 41 candidate pairs on every seed (prices are a permutation):
#: sized so this quadratic shape stays under 40 % of a round.
F3L = ("for $a in //book[price < 2], $b in //book[price < 2] "
       "where $a/author = $b/author and $a << $b "
       "return <pair>{$a/title}{$b/title}</pair>")
F4P = ("for $b in //book let $t := $b/title where $b/price < $p "
       "order by $b/author return <r>{$t}</r>")
F5L = "for $b in //book where $b/@id = 'b777' return $b/title"
PRICE_BOUNDS = (5, 15, 25, 35, 45, 55, 65, 75)

BIG_PATH = "//book/title"
SMALL_PATHS = ("//shelf[@genre = 'g3']/book[price > 90]/title",
               "//book[@id = 'b777']/title",
               "//shelf[@genre = 'g5']/book[price < 2]/author")
PROBE_PATH = "//shelf/book[price > 50]/title"
NEW_BOOK = ("<book id='fresh'><author>author-1</author>"
            "<title>fresh</title><price>5</price></book>")


def warm_engine(engine) -> None:
    """Statistics, structural summary and tag index exist after this."""
    engine.stats
    engine.summary
    engine.index.build()


def engine_answer(rec, call) -> str:
    """One engine call, consumed to text; spans under the open op."""
    with rec.span("engine.shell") as shell:
        result = call(rec.tracing)
    rec.adopt(result.trace, shell.index)
    with rec.span("xmlkit.serialize"):
        return result.serialize()


def durations_ms(spans: list[list], name: str) -> list[float]:
    return [(end - start) / 1e6
            for span_name, start, end, _p, _o in spans if span_name == name]


def median_or_zero(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


class Workload:
    name = ""
    lanes = 1           # driver threads / connections
    round_size = 1      # ops per round; phases end on a round boundary

    def __init__(self, inputs_dir: Path, seed: int) -> None:
        self.inputs = inputs_dir
        self.seed = seed
        self.rng = random.Random(f"{self.name}:{seed}")
        self._oracles: dict = {}
        #: Undo list filled as setup acquires resources, so a setup
        #: that fails half way still releases what it got.
        self._closers: list = []

    def setup(self) -> None:
        raise NotImplementedError

    def op(self, i: int, lane: int):
        """The ``i``-th op of ``lane``: ``fn(rec) -> [(key, text)]``."""
        raise NotImplementedError

    def oracle(self, key) -> str | None:
        """The navigational answer for ``key`` (``None``: unchecked)."""
        raise NotImplementedError

    def after_op(self) -> None:
        """Untimed hook between ops."""

    def naive(self, doc, text: str, params: dict | None = None) -> str:
        from repro import Engine

        engine = self._oracles.get(id(doc))
        if engine is None:
            engine = self._oracles[id(doc)] = Engine(doc)
        return engine.query(text, strategy="naive",
                            params=params).serialize()

    # -- what the per-layer probes run on ------------------------------

    def xml_files(self) -> list[Path]:
        return sorted(self.inputs.glob("*.xml"))

    def shapes(self) -> list[tuple]:
        """``(label, engine, text, params)`` per distinct query shape."""
        raise NotImplementedError

    def probe_db(self):
        """``(database, path query)`` for the executor comparison."""
        return self.db, PROBE_PATH

    def layer_metrics(self, spans: list[list],
                      blocks: int) -> tuple[dict[str, float], list[dict]]:
        """Per-layer metrics only this workload can measure, and the
        detail rows behind them (for the trace file)."""
        return {}, []

    def plan_cache_stats(self) -> dict:
        return self.db.engine.plan_cache.stats()

    def external_cpu_s(self) -> float:
        """CPU seconds so far of processes working for this one."""
        return 0.0

    def holder_maxrss_kb(self) -> int:
        """Peak RSS of the process that holds the document."""
        return peak_rss_kb()

    def connect(self, filename: str):
        import repro

        db = repro.connect(self.inputs / filename)
        self._closers.append(db.close)
        return db

    def close(self) -> None:
        while self._closers:
            self._closers.pop()()


class Table3Paths(Workload):
    """The paper's Table 3: 30 path queries over d1-d5, plans warm."""

    name = "table3_paths"
    round_size = 30

    def setup(self) -> None:
        from repro.datagen import DATASETS

        self.dbs = {}
        self.round = []
        for name in TABLE3_DATASETS:
            db = self.dbs[name] = self.connect(f"{name}.xml")
            warm_engine(db.engine)
            for spec in DATASETS[name].queries:
                db.prepare(spec.text)
                self.round.append((name, spec.text))
        self.rng.shuffle(self.round)

    def op(self, i: int, lane: int):
        name, text = key = self.round[i % self.round_size]
        engine = self.dbs[name].engine

        def fn(rec):
            with rec.span(OP, op_id=i):
                return [(key, engine_answer(rec, lambda trace: engine.query(
                    text, strategy="auto", trace=trace)))]
        return fn

    def oracle(self, key):
        name, text = key
        return self.naive(self.dbs[name].doc, text)

    def shapes(self):
        return [(f"{name}:{text}", self.dbs[name].engine, text, None)
                for name, text in sorted(self.round)]

    def probe_db(self):
        return self.dbs["d5"], "//proceedings[//editor]"

    def layer_metrics(self, spans, blocks):
        from probes import table3_grid

        metrics, rows = table3_grid(self.dbs, blocks)
        return metrics, [{"detail": "table3", **row} for row in rows]

    def plan_cache_stats(self):
        stats = [db.engine.plan_cache.stats() for db in self.dbs.values()]
        return {key: sum(s[key] for s in stats)
                for key in ("hits", "misses", "evictions")}



class FlworCorrelated(Workload):
    """Example-1 territory: six FLWOR shapes through prepared plans."""

    name = "flwor_correlated"
    round_size = 6

    def setup(self) -> None:
        self.db = self.connect("library.xml")
        warm_engine(self.db.engine)
        self.texts = {"F1p": F1.format("$p"), "F2l": F2L, "F3l": F3L,
                      "F4p": F4P, "F5l": F5L}
        self.texts.update({f"F1l{bound}": F1.format(bound)
                           for bound in PRICE_BOUNDS})
        self.prepared = {label: self.db.prepare(text)
                         for label, text in self.texts.items()}
        self.order = ["F1p", "F1l", "F2l", "F3l", "F4p", "F5l"]
        self.rng.shuffle(self.order)
        self.bounds = list(PRICE_BOUNDS)
        self.rng.shuffle(self.bounds)

    def _pick(self, i: int) -> tuple[str, dict | None]:
        label = self.order[i % self.round_size]
        bound = self.bounds[(i // self.round_size) % len(self.bounds)]
        if label == "F1l":
            return f"F1l{bound}", None
        if label in ("F1p", "F4p"):
            return label, {"p": bound}
        return label, None

    def op(self, i: int, lane: int):
        label, params = self._pick(i)
        plan = self.prepared[label]
        key = (label, params["p"] if params else None)

        def fn(rec):
            with rec.span(OP, op_id=i):
                return [(key, engine_answer(rec, lambda trace: plan.execute(
                    params=params, trace=trace)))]
        return fn

    def oracle(self, key):
        label, p = key
        return self.naive(self.db.doc, self.texts[label],
                          None if p is None else {"p": p})

    def shapes(self):
        engine = self.db.engine
        return [
            ("F1p", engine, self.texts["F1p"], {"p": 35}),
            ("F1l", engine, self.texts["F1l35"], None),
            ("F2l", engine, F2L, None), ("F3l", engine, F3L, None),
            ("F4p", engine, F4P, {"p": 35}), ("F5l", engine, F5L, None)]


class CompileCold(Workload):
    """Distinct query texts against a tiny document: compile is the op.

    The 3/2/1/4 template mix keeps both reported percentiles inside one
    template's latency class (sorted by cost: T2 10 %, T1 30 %, T3 70 %,
    T0 100 % — p50 lands in T3, p90 in T0) instead of on a boundary.
    """

    name = "compile_cold"
    round_size = 10
    PATTERN = (3, 0, 3, 1, 0, 3, 2, 0, 3, 1)
    #: One text in five is replayed on the oracle: every text is new,
    #: and the oracle costs 0.7x an op.
    ORACLE_EVERY = 5

    def setup(self) -> None:
        self.db = self.connect("library.xml")
        warm_engine(self.db.engine)
        self.issued: dict[int, str] = {}

    def text(self, i: int) -> str:
        # Literals are a function of (seed, i) alone, so text i is the
        # same text however many ops earlier phases got through.
        p, g = (31 * i + 17 * self.seed) % 97, (13 * i + self.seed) % 7
        template = self.PATTERN[i % self.round_size]
        if template == 0:
            return (f"for $b in //book where $b/price < {p} "
                    f'return <r n="{i}">{{$b/title}}</r>')
        if template == 1:
            return (f"//shelf[@genre = 'g{g}']/book[price > {p}]"
                    f"[author != 'x{i}']/title")
        if template == 2:       # no magazine anywhere: QL001 static empty
            return f"//shelf/magazine[issue = {i}]/title"
        return (f"for $b in //book let $t := $b/title "
                f"where $b/price > {p} and $b/@id != 'x{i}' "
                f"order by $b/author return $t")

    def op(self, i: int, lane: int):
        text = self.text(i)
        engine = self.db.engine
        if i % self.ORACLE_EVERY == 0:
            self.issued[i] = text

        def fn(rec):
            with rec.span(OP, op_id=i):
                return [(i, engine_answer(rec, lambda trace: engine.query(
                    text, trace=trace)))]
        return fn

    def oracle(self, key):
        text = self.issued.pop(key, None)
        return None if text is None else self.naive(self.db.doc, text)

    def fresh_texts(self, start: int, count: int) -> list[str]:
        return [self.text(i) for i in range(start, start + count)]

    def shapes(self):
        # One of each template, over indices no phase ever issues.
        return [(f"T{self.PATTERN[k]}", self.db.engine, text, None)
                for k, text in enumerate(self.fresh_texts(10**9, 10))]

    def layer_metrics(self, spans, blocks):
        from probes import compile_probes

        metrics, rows = compile_probes(
            self.db.engine, self.fresh_texts(2 * 10**9, 10),
            "//shelf/magazine/title", blocks)
        return metrics, [{"detail": "compile", **row} for row in rows]


class WireClosed(Workload):
    """Two connections, back to back, against a server child."""

    name = "wire_closed"
    lanes = 2
    round_size = 20
    PVALUES = (3, 9, 15, 21, 27, 33, 39, 45, 51, 57, 63, 69, 75, 81, 87, 93)

    def setup(self) -> None:
        from repro.serve.client import connect

        xml = self.inputs / "library.xml"
        self.local = None
        self.sheds = 0
        self.server = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "_server_main.py"), str(xml)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONHASHSEED": "0"})
        self._closers.append(lambda: reap(self.server))
        host, port = self._ask()["address"]
        self.clients = []
        for _ in range(self.lanes):
            client = connect(host, port)
            self._closers.append(client.close)
            self.clients.append(client)
            client.ping()
        mix = [0] * 4 + [1] * 4 + [2] * 4 + ["big"] * 5 + ["f1p"] * 3
        self.mixes = []
        for _ in range(self.lanes):
            self.rng.shuffle(mix)
            self.mixes.append(list(mix))
        for text in (*SMALL_PATHS, BIG_PATH):
            self.clients[0].query(text)

    def _ask(self, command: str | None = None) -> dict:
        """One line of the server child's control channel."""
        if command is not None:
            self.server.stdin.write(command + "\n")
            self.server.stdin.flush()
        line = self.server.stdout.readline()
        if not line:
            raise RuntimeError("server child exited "
                               f"(code {self.server.poll()})")
        return json.loads(line)

    def external_cpu_s(self) -> float:
        return self._ask("rusage")["cpu_s"]

    def holder_maxrss_kb(self) -> int:
        return self._ask("rusage")["maxrss_kb"]

    def local_db(self):
        """The same file in-process: oracle and comparison answers."""
        if self.local is None:
            self.local = self.connect("library.xml")
        return self.local

    def op(self, i: int, lane: int):
        from repro.errors import ServiceOverloadedError

        kind = self.mixes[lane][i % self.round_size]
        params = None
        if kind == "f1p":
            text = F1.format("$p")
            params = {"p": self.PVALUES[(i + lane) % len(self.PVALUES)]}
        else:
            text = BIG_PATH if kind == "big" else SMALL_PATHS[kind]
        client = self.clients[lane]
        key = (text, params["p"] if params else None)

        def fn(rec):
            with rec.span(OP, op_id=i):
                with rec.span("serve.wire") as wire:
                    try:
                        reply = client.query(text, params=params)
                    except ServiceOverloadedError:
                        self.sheds += 1
                        raise
                # The server reports durations, not timestamps: place
                # them against the end of the call that carried them.
                end = rec.end_of(wire.index)
                start = end - int(reply.total_ms * 1e6)
                stream = rec.synth("serve.stream", start,
                                   reply.total_ms * 1e6, wire.index)
                rec.synth("serve.queue_wait", start, reply.wait_ms * 1e6,
                          stream)
                rec.synth("serve.run", start + int(reply.wait_ms * 1e6),
                          reply.run_ms * 1e6, stream)
                with rec.span("xmlkit.serialize"):
                    return [(key, reply.serialize())]
        return fn

    def oracle(self, key):
        text, p = key
        params = None if p is None else {"p": p}
        db = self.local_db()
        expected = self.naive(db.doc, text, params)
        if db.query(text, params=params).serialize() != expected:
            return "\0in-process answer disagrees with the oracle"
        return expected

    def shapes(self):
        engine = self.local_db().engine
        return [(text, engine, text, None)
                for text in (*SMALL_PATHS, BIG_PATH)] + [
            ("F1p", engine, F1.format("$p"), {"p": 45})]

    def probe_db(self):
        return self.local_db(), PROBE_PATH

    def plan_cache_stats(self):
        return self.clients[0].stats()["documents"]["main"]["plan_cache"]

    def layer_metrics(self, spans, blocks):
        from probes import best_of

        client = self.clients[0]
        stats = client.stats()
        service = self.local_db().serve(workers=1)
        service.query(BIG_PATH)
        hit_s = best_of(lambda: service.query(BIG_PATH), blocks, 20)
        wire_s = best_of(lambda: client.query(BIG_PATH), blocks, 5)
        attempted = len(durations_ms(spans, OP))
        return {
            "serve.queue_wait_ms_p50":
                median_or_zero(durations_ms(spans, "serve.queue_wait")),
            "serve.run_ms_p50":
                median_or_zero(durations_ms(spans, "serve.run")),
            "serve.result_cache_hit_ratio":
                stats["result_cache"]["hit_ratio"] or 0.0,
            "serve.cache_hit_us": hit_s * 1e6,
            "serve.ping_rtt_us": best_of(client.ping, blocks, 50) * 1e6,
            "serve.wire_overhead_ms": (wire_s - hit_s) * 1e3,
            "serve.shed_share": self.sheds / max(attempted, 1),
            "serve.admission_window":
                stats["server"]["admission"]["window"],
        }, []



def reap(child: subprocess.Popen) -> None:
    """EOF on stdin asks the child to leave; then terminate, then kill."""
    try:
        child.stdin.close()
    except OSError:
        pass
    for stop in (None, child.terminate, child.kill):
        if stop is not None:
            stop()
        try:
            child.wait(timeout=5)
            break
        except subprocess.TimeoutExpired:
            continue
    child.stdout.close()


class SnapshotChurn(Workload):
    """Writes beside reads: one copy-on-write commit, then four texts
    read twice each (fresh snapshot, then result cache)."""

    name = "snapshot_churn"
    READS = (BIG_PATH, SMALL_PATHS[0], F1.format(30), SMALL_PATHS[1])
    #: One cycle in four is replayed on the oracle (a replay costs half
    #: a cycle, and the snapshot cannot be kept for later).
    ORACLE_EVERY = 4

    def setup(self) -> None:
        import repro

        self.db = self.connect("library.xml")
        self.service = self.db.serve(workers=1)
        self.new_book = repro.parse(NEW_BOOK).root
        for text in self.READS:
            self.service.query(text)
        self.expected: dict = {}
        self.replay = None

    def op(self, i: int, lane: int):
        service = self.service

        def fn(rec):
            answers = []
            with rec.span(OP, op_id=i):
                with rec.span("xmlkit.fork"):
                    batch = service.updater()
                with rec.span("xmlkit.update"):
                    shelf = batch.doc.root.children[0]
                    if i % 2 == 0:
                        batch.insert_subtree(shelf, self.new_book)
                    else:
                        batch.delete_subtree(shelf.children[-1])
                with rec.span("serve.commit"):
                    batch.commit()
                for text in self.READS:
                    for name in ("serve.first_read", "serve.cached_read"):
                        with rec.span(name) as read:
                            served = service.query(text)
                        start = rec.end_of(read.index) - int(
                            (served.wait_ms + served.run_ms) * 1e6)
                        rec.synth("serve.queue_wait", start,
                                  served.wait_ms * 1e6, read.index)
                        rec.synth("serve.run",
                                  start + int(served.wait_ms * 1e6),
                                  served.run_ms * 1e6, read.index)
                        with rec.span("xmlkit.serialize"):
                            answers.append(((text, served.snapshot_id),
                                            served.serialize()))
            if i % self.ORACLE_EVERY == 0:
                self.replay = served.snapshot
            return answers
        return fn

    def after_op(self) -> None:
        snapshot, self.replay = self.replay, None
        if snapshot is not None:
            self._oracles.clear()       # one engine per replayed snapshot
            for text in self.READS:
                self.expected[(text, snapshot.snapshot_id)] = self.naive(
                    snapshot.doc, text)

    def oracle(self, key):
        return self.expected.get(key)

    def shapes(self):
        engine = self.db.engine
        return [(text, engine, text, None) for text in self.READS]

    def plan_cache_stats(self):
        return self.service.stats()["documents"]["main"]["plan_cache"]

    def layer_metrics(self, spans, blocks):
        from probes import best_of

        cache = self.service.stats()["result_cache"]
        service = self.service
        waits = durations_ms(spans, "serve.queue_wait")
        runs = durations_ms(spans, "serve.run")
        return {
            "serve.queue_wait_ms_p50": median_or_zero(waits),
            "serve.run_ms_p50": median_or_zero(runs),
            "serve.result_cache_hit_ratio": cache["hit_ratio"] or 0.0,
            "serve.cache_hit_us": best_of(
                lambda: service.query(BIG_PATH), blocks, 20) * 1e6,
            "serve.commit_ms_p50":
                median_or_zero(durations_ms(spans, "serve.commit")),
            "serve.first_read_ms_p50":
                median_or_zero(durations_ms(spans, "serve.first_read")),
            "serve.cached_read_us_p50":
                median_or_zero(durations_ms(spans, "serve.cached_read"))
                * 1e3,
            "serve.invalidated_entries": cache["invalidated"],
            "serve.audit_survivors": cache["audit"]["survivors"],
        }, []


WORKLOADS = {cls.name: cls for cls in (
    Table3Paths, FlworCorrelated, CompileCold, WireClosed, SnapshotChurn)}
