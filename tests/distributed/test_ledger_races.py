"""Ledger race windows under a fake clock: the S-class edge cases.

Three timing races the live broker can hit but sockets cannot schedule
deterministically: a requeued shard completing twice (the original
worker finishes *after* its lease expired and the replacement already
ran), the attempts budget boundary (exactly ``max_attempts`` leases
must be allowed, one more must fail the job), and heartbeats arriving
for leases that already expired.  Plus the reject/refund bookkeeping
``reject_result`` added for undecodable result frames.
"""

from repro.distributed import ShardLedger


def _ledger(**kw):
    kw.setdefault("lease_timeout", 10.0)
    ledger = ShardLedger(**kw)
    ledger.submit("job", [(0, {"t": 0}), (1, {"t": 1})], 0.0)
    return ledger


class TestRequeueRacingLateComplete:
    def test_late_complete_after_expiry_does_not_clobber_replacement(self):
        ledger = ShardLedger(lease_timeout=10.0)
        ledger.submit("job", [(0, {"t": 0})], 0.0)
        stale = ledger.lease("w1", 0.0)
        ledger.expire(100.0)  # w1's lease is gone, shard pending again
        fresh = ledger.lease("w2", 100.0)
        assert fresh.shard_id == stale.shard_id
        # w2 completes first; w1's late duplicate must be ignored.
        ledger.complete(fresh.shard_id, {"winner": "w2"})
        ledger.complete(stale.shard_id, {"winner": "w1"})
        record = ledger._shards[fresh.shard_id]
        assert record.state == "done"
        assert record.result == {"winner": "w2"}

    def test_late_complete_before_release_still_counts(self):
        # Expired but not yet re-leased: the original worker's result
        # arrives and is correct (bit-identical by the seed contract),
        # so the ledger takes it rather than recomputing.
        ledger = _ledger()
        record = ledger.lease("w1", 0.0)
        ledger.expire(100.0)
        ledger.complete(record.shard_id, {"winner": "w1"})
        assert ledger._shards[record.shard_id].state == "done"
        # The stale queue entry must be skipped, not re-leased.
        follow = ledger.lease("w2", 100.0)
        assert follow is None or follow.shard_id != record.shard_id

    def test_stale_fail_after_expiry_burns_nothing(self):
        ledger = _ledger()
        stale = ledger.lease("w1", 0.0)
        ledger.expire(100.0)
        fresh = ledger.lease("w2", 100.0)
        attempts_before = fresh.attempts
        # w1's error report refers to a lease it no longer holds.
        ledger.fail(stale.shard_id, "w1", "stale error")
        assert fresh.state == "leased"
        assert fresh.worker == "w2"
        assert fresh.attempts == attempts_before


class TestMaxAttemptsBoundary:
    def test_exactly_max_attempts_leases_allowed(self):
        # max_attempts=3 means the third lease may still succeed; only
        # a failure *after* the third burns the job (off-by-one guard).
        ledger = ShardLedger(lease_timeout=10.0, max_attempts=3)
        ledger.submit("job", [(0, {"t": 0})], 0.0)
        for round_no in range(2):
            record = ledger.lease("w", float(round_no))
            assert record is not None
            ledger.fail(record.shard_id, "w", f"boom {round_no}")
            assert ledger.job_state("job")[0] == "running"
        final = ledger.lease("w", 2.0)
        assert final is not None
        assert final.attempts == 3
        ledger.complete(final.shard_id, {"ok": True})
        assert ledger.job_state("job")[0] == "done"

    def test_failure_on_final_attempt_fails_job(self):
        ledger = ShardLedger(lease_timeout=10.0, max_attempts=3)
        ledger.submit("job", [(0, {"t": 0})], 0.0)
        for round_no in range(3):
            record = ledger.lease("w", float(round_no))
            ledger.fail(record.shard_id, "w", "boom")
        state, error = ledger.job_state("job")
        assert state == "failed"
        assert "after 3 attempts" in error
        assert ledger.lease("w", 9.0) is None  # failed jobs are skipped


class TestHeartbeatOnExpiredLease:
    def test_renew_after_expiry_is_refused(self):
        ledger = _ledger()
        record = ledger.lease("w1", 0.0)
        ledger.expire(100.0)
        assert not ledger.renew(record.shard_id, "w1", 100.0)

    def test_renew_after_reassignment_is_refused(self):
        # The zombie's heartbeat must not extend the *replacement's*
        # lease (same shard id, different worker).
        ledger = _ledger()
        record = ledger.lease("w1", 0.0)
        ledger.expire(100.0)
        fresh = ledger.lease("w2", 100.0)
        deadline = fresh.deadline
        assert not ledger.renew(record.shard_id, "w1", 105.0)
        assert fresh.deadline == deadline

    def test_renew_exactly_at_deadline_still_valid(self):
        # expire() uses strict <, so a heartbeat landing exactly on the
        # deadline tick keeps the lease.
        ledger = _ledger()
        record = ledger.lease("w1", 0.0)
        ledger.expire(record.deadline)
        assert ledger.renew(record.shard_id, "w1", record.deadline)


class TestRejectResult:
    def test_reject_refunds_attempt(self):
        ledger = ShardLedger(lease_timeout=10.0, max_attempts=3)
        ledger.submit("job", [(0, {"t": 0})], 0.0)
        record = ledger.lease("w1", 0.0)
        ledger.reject_result(record.shard_id, "w1", "undecodable")
        # The attempt was refunded: a healthy worker still has the full
        # budget ahead of it.
        again = ledger.lease("w2", 1.0)
        assert again is not None
        assert again.attempts == 1

    def test_reject_bounded_by_max_attempts(self):
        # A worker that deterministically produces garbage must exhaust
        # the budget, not loop forever on refunded attempts.
        ledger = ShardLedger(lease_timeout=10.0, max_attempts=2)
        ledger.submit("job", [(0, {"t": 0})], 0.0)
        for tick in range(4):
            record = ledger.lease("bad", float(tick))
            if record is None:
                break
            ledger.reject_result(record.shard_id, "bad", "garbage")
        assert ledger.job_state("job")[0] == "failed"

    def test_stale_reject_ignored(self):
        ledger = _ledger()
        stale = ledger.lease("w1", 0.0)
        ledger.expire(100.0)
        fresh = ledger.lease("w2", 100.0)
        ledger.reject_result(stale.shard_id, "w1", "stale")
        assert fresh.state == "leased"
        assert fresh.rejects == 0

    def test_reject_then_clean_completion(self):
        ledger = _ledger()
        record = ledger.lease("w1", 0.0)
        ledger.reject_result(record.shard_id, "w1", "mangled frame")
        retry = ledger.lease("w2", 1.0)
        ledger.complete(retry.shard_id, {"ok": True})
        assert ledger._shards[retry.shard_id].state == "done"
