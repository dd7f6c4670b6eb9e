"""Tests for the filesystem claim protocol and the claimed runner.

The contract under test: N workers pointed at one shared cache dir
divide a grid between them — every point computed exactly once, results
bit-identical to a serial run — and a crashed worker's claims are
reclaimed after the TTL while a live worker's heartbeat protects its
claims indefinitely.
"""

import json
import multiprocessing
import os
import threading
import time

import pytest

from repro.harness import (
    MISS,
    ClaimBoard,
    ClaimedRunner,
    ParallelRunner,
    ResultStore,
    SweepError,
    SweepPoint,
    SweepSpec,
)

ECHO_SPEC = SweepSpec(kind="selftest", axes={"payload": [1, 2, 3, 4, 5]})


def backdate(board: ClaimBoard, key: str, seconds: float) -> None:
    """Age a claim's heartbeat by ``seconds`` (simulates a dead owner)."""
    path = board.path_for(key)
    stamp = time.time() - seconds
    os.utime(path, (stamp, stamp))


class TestClaimBoard:
    def test_acquire_creates_claim_file_with_owner(self, tmp_path):
        board = ClaimBoard(tmp_path, owner="w1")
        assert board.acquire("k1")
        payload = json.loads(board.path_for("k1").read_text())
        assert payload["owner"] == "w1"
        assert payload["pid"] == os.getpid()
        assert board.holds("k1") and board.held == 1

    def test_fresh_claim_blocks_other_owners(self, tmp_path):
        first = ClaimBoard(tmp_path, owner="w1")
        second = ClaimBoard(tmp_path, owner="w2")
        assert first.acquire("k1")
        assert not second.acquire("k1")
        info = second.read("k1")
        assert info.owner == "w1" and info.age_s < 5.0

    def test_release_frees_the_claim(self, tmp_path):
        first = ClaimBoard(tmp_path, owner="w1")
        second = ClaimBoard(tmp_path, owner="w2")
        assert first.acquire("k1")
        first.release("k1")
        assert not board_file_exists(first, "k1")
        assert second.acquire("k1")
        assert first.stats()["released"] == 1

    def test_release_of_unheld_key_is_a_noop(self, tmp_path):
        first = ClaimBoard(tmp_path, owner="w1")
        second = ClaimBoard(tmp_path, owner="w2")
        assert first.acquire("k1")
        second.release("k1")  # not second's to release
        assert board_file_exists(first, "k1")
        assert second.stats()["released"] == 0

    def test_stale_claim_is_stolen_after_ttl(self, tmp_path):
        dead = ClaimBoard(tmp_path, owner="crashed", ttl_s=10.0)
        assert dead.acquire("k1")
        backdate(dead, "k1", seconds=60.0)
        thief = ClaimBoard(tmp_path, owner="thief", ttl_s=10.0)
        assert thief.acquire("k1")
        assert thief.stats()["stolen"] == 1
        assert json.loads(thief.path_for("k1").read_text())["owner"] == "thief"

    def test_heartbeat_prevents_takeover(self, tmp_path):
        live = ClaimBoard(tmp_path, owner="live", ttl_s=30.0)
        assert live.acquire("k1")
        backdate(live, "k1", seconds=300.0)  # would be stealable...
        live.heartbeat()  # ...but the owner is alive and refreshes it
        other = ClaimBoard(tmp_path, owner="other", ttl_s=30.0)
        assert not other.acquire("k1")
        assert other.stats()["stolen"] == 0

    def test_owner_detects_a_stolen_claim_on_heartbeat(self, tmp_path):
        slow = ClaimBoard(tmp_path, owner="slow", ttl_s=5.0)
        assert slow.acquire("k1")
        backdate(slow, "k1", seconds=60.0)
        thief = ClaimBoard(tmp_path, owner="thief", ttl_s=5.0)
        assert thief.acquire("k1")
        slow.heartbeat()  # must not refresh the thief's claim
        assert not slow.holds("k1")
        assert slow.stats()["lost"] == 1
        assert json.loads(thief.path_for("k1").read_text())["owner"] == "thief"

    def test_release_restores_claim_stolen_mid_release(self, tmp_path, monkeypatch):
        """The release TOCTOU: a steal landing between release's
        ownership read and the file removal must not delete the thief's
        fresh claim — release verifies what it renamed aside and puts a
        foreign claim back."""
        from repro.harness import ClaimInfo

        slow = ClaimBoard(tmp_path, owner="slow", ttl_s=5.0)
        assert slow.acquire("k1")
        backdate(slow, "k1", seconds=60.0)
        thief = ClaimBoard(tmp_path, owner="thief", ttl_s=5.0)
        assert thief.acquire("k1")
        # freeze the pre-removal read at "still ours" to land in the window
        monkeypatch.setattr(
            slow,
            "read",
            lambda key: ClaimInfo(
                owner="slow", pid=0, host="h", claimed_at=0.0, age_s=0.0
            ),
        )
        slow.release("k1")
        assert json.loads(thief.path_for("k1").read_text())["owner"] == "thief"
        assert slow.stats()["lost"] == 1
        assert slow.stats()["released"] == 0

    def test_ttl_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError, match="TTL"):
            ClaimBoard(tmp_path, ttl_s=0)

    def test_events_log_records_transitions(self, tmp_path):
        board = ClaimBoard(tmp_path, owner="w1")
        board.acquire("k1")
        board.note_computed("k1")
        board.release("k1")
        events = [(e["event"], e["owner"]) for e in board.events()]
        assert events == [("claimed", "w1"), ("computed", "w1"), ("released", "w1")]

    def test_torn_claim_file_reads_as_fresh_not_stealable(self, tmp_path):
        """A claim seen between O_CREAT and its payload write must never
        be stolen just for being unparsable."""
        board = ClaimBoard(tmp_path, owner="w1", ttl_s=10.0)
        board.path_for("k1").write_text("")  # simulate the torn window
        info = board.read("k1")
        assert info is not None and info.owner is None and info.age_s < 5.0
        other = ClaimBoard(tmp_path, owner="w2", ttl_s=10.0)
        assert not other.acquire("k1")


def board_file_exists(board: ClaimBoard, key: str) -> bool:
    return board.path_for(key).exists()


def _race_for_claim(root, key, barrier, queue):
    board = ClaimBoard(root, owner=f"racer-{os.getpid()}")
    barrier.wait()
    queue.put(board.acquire(key))


class TestClaimRaces:
    def test_o_creat_excl_race_has_exactly_one_winner(self, tmp_path):
        """Multiple *processes* releasing a barrier into acquire() on one
        key: the kernel's O_CREAT|O_EXCL picks exactly one winner."""
        ctx = multiprocessing.get_context("fork")
        racers = 4
        barrier = ctx.Barrier(racers)
        queue = ctx.Queue()
        procs = [
            ctx.Process(
                target=_race_for_claim,
                args=(str(tmp_path), "contested", barrier, queue),
            )
            for _ in range(racers)
        ]
        for proc in procs:
            proc.start()
        wins = [queue.get(timeout=30) for _ in range(racers)]
        for proc in procs:
            proc.join(timeout=30)
        assert sum(wins) == 1

    def test_threaded_steal_race_single_thief(self, tmp_path):
        """Many threads racing to steal one stale claim: the retire
        token of that claim admits exactly one."""
        # ttl must be generous: with a short one, a loaded machine can
        # delay a losing thief's stat past the TTL, making the freshly
        # stolen claim itself look stale (a second legitimate steal, and
        # a flaky assertion).  The 60s backdate keeps the original stale.
        dead = ClaimBoard(tmp_path, owner="dead", ttl_s=30.0)
        assert dead.acquire("k1")
        backdate(dead, "k1", seconds=60.0)
        boards = [
            ClaimBoard(tmp_path, owner=f"thief-{i}", ttl_s=30.0) for i in range(6)
        ]
        barrier = threading.Barrier(len(boards))
        wins = []

        def steal(board):
            barrier.wait()
            wins.append(board.acquire("k1"))

        threads = [threading.Thread(target=steal, args=(b,)) for b in boards]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert sum(wins) == 1

    def test_thief_with_an_old_read_cannot_displace_a_fresh_steal(
        self, tmp_path, monkeypatch
    ):
        """The steal check-then-act race, pinned: a slow thief judged the
        claim stale, then a faster thief stole it.  The slow thief must
        back off rather than replace the fast thief's fresh claim."""
        dead = ClaimBoard(tmp_path, owner="dead", ttl_s=30.0)
        assert dead.acquire("k1")
        backdate(dead, "k1", seconds=60.0)
        fast = ClaimBoard(tmp_path, owner="fast", ttl_s=30.0)
        slow = ClaimBoard(tmp_path, owner="slow", ttl_s=30.0)
        stale_view = slow.read("k1")
        assert stale_view.age_s > 30.0
        assert fast.acquire("k1")
        monkeypatch.setattr(slow, "read", lambda key: stale_view)
        assert not slow.acquire("k1")
        assert json.loads(fast.path_for("k1").read_text())["owner"] == "fast"
        assert slow.stats()["stolen"] == 0 and fast.stats()["stolen"] == 1
        assert fast.holds("k1") and not slow.holds("k1")

    def test_release_backs_off_while_a_thief_retires_the_claim(self, tmp_path):
        """An owner alive past the TTL releasing while a thief holds the
        claim's retire token: the owner counts the claim lost and leaves
        the file to the thief."""
        slow = ClaimBoard(tmp_path, owner="slow", ttl_s=5.0)
        assert slow.acquire("k1")
        claim_id = slow.read("k1").claim_id
        token = tmp_path / f"k1.{claim_id}.retire"
        token.write_text("")  # a thief between taking the token and swapping
        slow.release("k1")
        assert slow.stats()["lost"] == 1 and slow.stats()["released"] == 0
        assert slow.read("k1").claim_id == claim_id
        token.unlink()
        backdate(slow, "k1", seconds=60.0)
        thief = ClaimBoard(tmp_path, owner="thief", ttl_s=5.0)
        assert thief.acquire("k1")
        assert json.loads(thief.path_for("k1").read_text())["owner"] == "thief"

    def test_retire_token_of_a_crashed_thief_expires_after_ttl(self, tmp_path):
        """A thief that died holding a retire token must not pin the
        claim forever: once the token is older than the TTL it is dropped
        and a later attempt steals the claim."""
        dead = ClaimBoard(tmp_path, owner="dead", ttl_s=10.0)
        assert dead.acquire("k1")
        backdate(dead, "k1", seconds=60.0)
        token = tmp_path / f"k1.{dead.read('k1').claim_id}.retire"
        token.write_text("")
        thief = ClaimBoard(tmp_path, owner="thief", ttl_s=10.0)
        assert not thief.acquire("k1")  # fresh token: someone is mid-steal
        stamp = time.time() - 60.0
        os.utime(token, (stamp, stamp))
        assert not thief.acquire("k1")  # drops the dead thief's token
        assert not token.exists()
        assert thief.acquire("k1")
        assert json.loads(thief.path_for("k1").read_text())["owner"] == "thief"


class TestClaimedRunner:
    def make(self, tmp_path, owner="w1", ttl_s=30.0, **runner_kwargs):
        runner_kwargs.setdefault("jobs", 1)
        runner_kwargs.setdefault("store", ResultStore(tmp_path / "cache"))
        return ClaimedRunner(
            ParallelRunner(**runner_kwargs),
            ClaimBoard(tmp_path / "cache" / "claims", owner=owner, ttl_s=ttl_s),
            poll_interval_s=0.02,
        )

    def test_requires_a_store(self, tmp_path):
        with pytest.raises(ValueError, match="store"):
            ClaimedRunner(
                ParallelRunner(jobs=1), ClaimBoard(tmp_path / "claims")
            )

    def test_rejects_refresh(self, tmp_path):
        with pytest.raises(ValueError, match="refresh"):
            ClaimedRunner(
                ParallelRunner(store=ResultStore(tmp_path / "cache"), refresh=True),
                ClaimBoard(tmp_path / "claims"),
            )

    def test_single_worker_run_matches_serial(self, tmp_path):
        serial = ParallelRunner(jobs=1).run(ECHO_SPEC)
        with self.make(tmp_path) as runner:
            claimed = runner.run(ECHO_SPEC)
            assert [v["echo"] for v in claimed.values] == [
                v["echo"] for v in serial.values
            ]
            assert claimed.report.executed == 5
            assert runner.claims.stats()["computed"] == 5
            # every claim was released: a rerun is pure cache hits
            assert runner.claims.held == 0
            again = runner.run(ECHO_SPEC)
            assert again.report.executed == 0 and again.report.cached == 5

    def test_accuracy_grid_serial_equals_claimed_parallel(self, tmp_path):
        """The distributed analogue of the serial≡parallel golden: a
        claimed runner over worker processes produces bit-identical
        grid results."""
        spec = SweepSpec(
            kind="accuracy",
            axes={"app": ["em3d", "ocean"], "depth": [1, 2]},
            base={"iterations": 4},
        )
        serial = ParallelRunner(jobs=1).run(spec)
        with self.make(tmp_path, jobs=2) as runner:
            claimed = runner.run(spec)
        assert claimed.values == serial.values
        assert claimed.points == serial.points

    def test_two_workers_divide_a_grid_exactly_once(self, tmp_path):
        """Two claimed runners over one cache dir: every point computed
        exactly once across both, results identical on both."""
        spec = SweepSpec(
            kind="selftest",
            axes={"payload": list(range(8))},
            base={"sleep_s": 0.03},
        )
        results = {}

        def work(name):
            with self.make(tmp_path, owner=name) as runner:
                results[name] = runner.run(spec)

        threads = [
            threading.Thread(target=work, args=(name,)) for name in ("a", "b")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        values_a = [v["echo"] for v in results["a"].values]
        values_b = [v["echo"] for v in results["b"].values]
        assert values_a == values_b == list(range(8))
        total = results["a"].report.executed + results["b"].report.executed
        assert total == 8  # no point computed twice
        audit = ClaimBoard(tmp_path / "cache" / "claims", owner="audit")
        computed = [e for e in audit.events() if e["event"] == "computed"]
        per_key = {}
        for event in computed:
            per_key[event["key"]] = per_key.get(event["key"], 0) + 1
        assert len(per_key) == 8 and set(per_key.values()) == {1}

    def test_stale_claim_of_crashed_worker_is_taken_over(self, tmp_path):
        """A claim left behind by a dead worker does not block the grid:
        after the TTL the live worker steals it and computes the point."""
        store = ResultStore(tmp_path / "cache")
        point = SweepPoint.make("selftest", {"payload": 1})
        crashed = ClaimBoard(tmp_path / "cache" / "claims", owner="crashed", ttl_s=5.0)
        with self.make(tmp_path, owner="live", ttl_s=5.0) as runner:
            assert crashed.acquire(runner.claim_key(point))
            backdate(crashed, runner.claim_key(point), seconds=60.0)
            result = runner.run([point])
            assert result.values[0]["echo"] == 1
            assert runner.claims.stats()["stolen"] == 1
        assert store.load_entry(point) is not MISS

    def test_waits_for_point_claimed_by_live_worker(self, tmp_path):
        """A point freshly claimed elsewhere is not recomputed — the
        runner polls until the other worker's result lands."""
        store = ResultStore(tmp_path / "cache")
        point = SweepPoint.make("selftest", {"payload": 7})
        other = ClaimBoard(tmp_path / "cache" / "claims", owner="other", ttl_s=30.0)
        with self.make(tmp_path, owner="waiter", ttl_s=30.0) as runner:
            assert other.acquire(runner.claim_key(point))
            done = {}

            def run():
                done["result"] = runner.run([point])

            thread = threading.Thread(target=run)
            thread.start()
            time.sleep(0.15)
            assert "result" not in done  # still waiting on the claim
            # the other worker finishes: result first, then release
            store.store(point, {"echo": 7, "pid": -1}, elapsed_s=0.5)
            other.release(runner.claim_key(point))
            thread.join(timeout=30)
            result = done["result"]
            assert result.values[0] == {"echo": 7, "pid": -1}
            assert result.report.executed == 0 and result.report.cached == 1

    def test_failed_point_releases_its_claim_and_raises(self, tmp_path):
        point = SweepPoint.make("selftest", {"payload": 9, "behavior": "error"})
        with self.make(tmp_path) as runner:
            with pytest.raises(SweepError, match="payload=9"):
                runner.run([point])
            assert runner.claims.held == 0
            assert not board_file_exists(runner.claims, runner.claim_key(point))

    def test_submit_point_computes_and_releases(self, tmp_path):
        with self.make(tmp_path) as runner:
            point = SweepPoint.make("selftest", {"payload": 42})
            outcome = runner.submit_point(point).result(timeout=30)
            assert not outcome.cached and outcome.value["echo"] == 42
            assert runner.claims.held == 0
            assert runner.claims.stats()["computed"] == 1
            hit = runner.submit_point(point).result(timeout=5)
            assert hit.cached and hit.value == outcome.value

    def test_submit_point_waits_on_foreign_claim(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        point = SweepPoint.make("selftest", {"payload": 3})
        other = ClaimBoard(tmp_path / "cache" / "claims", owner="other", ttl_s=30.0)
        with self.make(tmp_path, owner="waiter") as runner:
            assert other.acquire(runner.claim_key(point))
            future = runner.submit_point(point)
            time.sleep(0.1)
            assert not future.done()
            store.store(point, {"echo": 3, "pid": -1}, elapsed_s=0.2)
            outcome = future.result(timeout=30)
            assert outcome.cached and outcome.value == {"echo": 3, "pid": -1}
            # no duplicate computation happened on this side
            assert runner.claims.stats()["computed"] == 0

    def test_submit_point_steals_stale_foreign_claim(self, tmp_path):
        point = SweepPoint.make("selftest", {"payload": 5})
        dead = ClaimBoard(tmp_path / "cache" / "claims", owner="dead", ttl_s=1.0)
        with self.make(tmp_path, owner="live", ttl_s=1.0) as runner:
            key = runner.claim_key(point)
            assert dead.acquire(key)
            backdate(dead, key, seconds=60.0)
            outcome = runner.submit_point(point).result(timeout=30)
            assert not outcome.cached and outcome.value["echo"] == 5
            assert runner.claims.stats()["stolen"] == 1

    def test_close_resolves_pending_waiters(self, tmp_path):
        point = SweepPoint.make("selftest", {"payload": 8})
        other = ClaimBoard(tmp_path / "cache" / "claims", owner="other", ttl_s=30.0)
        runner = self.make(tmp_path, owner="closer")
        assert other.acquire(runner.claim_key(point))
        future = runner.submit_point(point)
        runner.close()
        with pytest.raises(SweepError, match="closed"):
            future.result(timeout=5)

    def test_duplicate_grid_points_resolved_once(self, tmp_path):
        points = [
            SweepPoint.make("selftest", {"payload": 7}),
            SweepPoint.make("selftest", {"payload": 7}),
        ]
        with self.make(tmp_path) as runner:
            result = runner.run(points)
            assert result.report.executed == 1
            assert result.values[0] == result.values[1]
