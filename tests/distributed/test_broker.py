"""ShardLedger unit tests: lease/heartbeat/requeue with an explicit clock.

The ledger takes ``now`` timestamps, so every fault-tolerance
transition — lease expiry, worker disconnect, error retry, attempt
exhaustion — is exercised here deterministically, without sockets or
sleeps (the live asyncio broker is covered end-to-end in
``test_distributed.py``).
"""

import pytest

from repro.distributed import ShardLedger


def _ledger(**kw):
    kw.setdefault("lease_timeout", 10.0)
    ledger = ShardLedger(**kw)
    ledger.submit("job", [(0, {"t": 0}), (1, {"t": 1}), (2, {"t": 2})], 0.0)
    return ledger


class TestLeasing:
    def test_fifo_lease_order(self):
        ledger = _ledger()
        assert [ledger.lease("w", 0.0).index for _ in range(3)] == [0, 1, 2]
        assert ledger.lease("w", 0.0) is None

    def test_lease_sets_deadline_and_attempts(self):
        ledger = _ledger()
        record = ledger.lease("w1", 5.0)
        assert record.worker == "w1"
        assert record.attempts == 1
        assert record.deadline == 15.0

    def test_renew_extends_deadline(self):
        ledger = _ledger()
        record = ledger.lease("w1", 0.0)
        assert ledger.renew(record.shard_id, "w1", 8.0)
        assert record.deadline == 18.0

    def test_renew_wrong_worker_or_state_refused(self):
        ledger = _ledger()
        record = ledger.lease("w1", 0.0)
        assert not ledger.renew(record.shard_id, "w2", 1.0)
        ledger.complete(record.shard_id, {"r": 1})
        assert not ledger.renew(record.shard_id, "w1", 1.0)
        assert not ledger.renew("job:99", "w1", 1.0)

    def test_duplicate_submit_rejected(self):
        ledger = _ledger()
        with pytest.raises(ValueError, match="already submitted"):
            ledger.submit("job", [(0, {})], 0.0)

    def test_rejected_submit_leaves_no_orphans(self):
        # Atomicity: a duplicate index must roll back completely — no
        # orphan shard to lease, and the job id stays reusable.
        ledger = ShardLedger()
        with pytest.raises(ValueError, match="duplicate shard index"):
            ledger.submit("dup", [(0, {"a": 1}), (0, {"b": 2})], 0.0)
        assert ledger.lease("w", 0.0) is None
        assert ledger.counts()["jobs"] == 0
        ledger.submit("dup", [(0, {"a": 1}), (1, {"b": 2})], 0.0)  # reusable
        assert ledger.lease("w", 0.0).index == 0


class TestFaultTolerance:
    def test_expired_lease_requeues(self):
        ledger = _ledger()
        record = ledger.lease("w1", 0.0)
        for other in [ledger.lease("w0", 0.0) for _ in range(2)]:
            ledger.complete(other.shard_id, {})
        assert ledger.expire(9.0) == []  # still within the lease
        assert ledger.expire(11.0) == ["job"]
        assert record.state == "pending"
        # Re-leased to another worker; attempts accumulate.
        again = ledger.lease("w2", 12.0)
        assert again.shard_id == record.shard_id
        assert again.attempts == 2

    def test_heartbeat_prevents_expiry(self):
        ledger = _ledger()
        record = ledger.lease("w1", 0.0)
        ledger.renew(record.shard_id, "w1", 9.0)
        assert ledger.expire(11.0) == []
        assert record.state == "leased"

    def test_disconnect_requeues_all_worker_leases(self):
        ledger = _ledger()
        a = ledger.lease("w1", 0.0)
        b = ledger.lease("w1", 0.0)
        c = ledger.lease("w2", 0.0)
        assert sorted(ledger.release_worker("w1")) == ["job", "job"]
        assert a.state == b.state == "pending"
        assert c.state == "leased"

    def test_error_requeues_until_attempts_exhausted(self):
        ledger = _ledger(max_attempts=2)
        record = ledger.lease("w1", 0.0)
        for other in [ledger.lease("w0", 0.0) for _ in range(2)]:
            ledger.complete(other.shard_id, {})
        ledger.fail(record.shard_id, "w1", "boom")
        assert record.state == "pending"
        assert ledger.job_state("job") == ("running", None)
        record = ledger.lease("w1", 1.0)
        ledger.fail(record.shard_id, "w1", "boom again")
        assert record.state == "failed"
        state, error = ledger.job_state("job")
        assert state == "failed"
        assert "boom again" in error

    def test_failed_job_shards_not_leased(self):
        ledger = _ledger(max_attempts=1)
        record = ledger.lease("w1", 0.0)
        ledger.fail(record.shard_id, "w1", "poison task")
        # The remaining two shards are pending but their job is dead.
        assert ledger.lease("w2", 1.0) is None

    def test_stale_error_report_ignored(self):
        # w1's lease expired and the shard was re-leased to w2; w1's
        # late error must neither requeue w2's work nor burn attempts.
        ledger = _ledger()
        record = ledger.lease("w1", 0.0)
        for other in [ledger.lease("w0", 0.0) for _ in range(2)]:
            ledger.complete(other.shard_id, {})
        ledger.expire(11.0)
        again = ledger.lease("w2", 12.0)
        assert ledger.fail(record.shard_id, "w1", "late boom") == "job"
        assert again.state == "leased"
        assert again.worker == "w2"
        assert again.attempts == 2
        # And an error for a shard already completed is a no-op too.
        ledger.complete(again.shard_id, {"ok": 1})
        ledger.fail(again.shard_id, "w2", "even later boom")
        assert again.state == "done"

    def test_late_duplicate_complete_ignored(self):
        ledger = _ledger()
        record = ledger.lease("w1", 0.0)
        for other in [ledger.lease("w0", 0.0) for _ in range(2)]:
            ledger.complete(other.shard_id, {})
        ledger.expire(11.0)
        again = ledger.lease("w2", 12.0)
        assert again.shard_id == record.shard_id
        assert ledger.complete(again.shard_id, {"winner": "w2"}) == "job"
        # The original worker wakes up and reports too: first wins.
        assert ledger.complete(record.shard_id, {"winner": "w1"}) == "job"
        (_, result), *_ = ledger.job_results("job")
        assert result == {"winner": "w2"}


class TestJobLifecycle:
    def test_job_completion_and_results_in_index_order(self):
        ledger = _ledger()
        records = [ledger.lease("w", 0.0) for _ in range(3)]
        for record in reversed(records):  # complete out of order
            assert ledger.job_state("job")[0] == "running"
            ledger.complete(record.shard_id, {"index": record.index})
        assert ledger.job_state("job") == ("done", None)
        assert ledger.job_results("job") == [
            (0, {"index": 0}),
            (1, {"index": 1}),
            (2, {"index": 2}),
        ]

    def test_unknown_job(self):
        assert _ledger().job_state("nope") == ("unknown", None)

    def test_counts_and_drop(self):
        ledger = _ledger()
        record = ledger.lease("w", 0.0)
        ledger.complete(record.shard_id, {})
        counts = ledger.counts()
        assert counts["pending"] == 2
        assert counts["done"] == 1
        assert counts["jobs"] == 1
        ledger.drop_job("job")
        assert ledger.counts() == {
            "pending": 0,
            "leased": 0,
            "done": 0,
            "failed": 0,
            "jobs": 0,
        }
        # Shards of a dropped job are simply gone from the queue.
        assert ledger.lease("w", 1.0) is None

    def test_graphs_live_and_die_with_their_job(self):
        ledger = ShardLedger()
        blob = {"n": 1}
        ledger.submit("a", [(0, {})], 0.0, {"d1": blob})
        ledger.submit("b", [(0, {})], 0.0)
        assert ledger.graph_blob("a:0", "d1") is blob
        assert ledger.graph_blob("b:0", "d1") is None  # another job's graph
        assert ledger.graph_blob("a:0", "d2") is None
        assert ledger.graph_blob("a:9", "d1") is None
        ledger.drop_job("a")
        assert ledger.graph_blob("a:0", "d1") is None
        assert ledger._graphs == {}

    def test_rejected_graphs_leave_no_job(self):
        ledger = ShardLedger()
        with pytest.raises(TypeError, match="graphs"):
            ledger.submit("a", [(0, {})], 0.0, ["not", "a", "map"])
        assert ledger.job_state("a") == ("unknown", None)

    def test_empty_job_is_immediately_done(self):
        ledger = ShardLedger()
        ledger.submit("empty", [], 0.0)
        assert ledger.job_state("empty") == ("done", None)
        assert ledger.job_results("empty") == []

    def test_validation(self):
        with pytest.raises(ValueError):
            ShardLedger(lease_timeout=0.0)
        with pytest.raises(ValueError):
            ShardLedger(max_attempts=0)
