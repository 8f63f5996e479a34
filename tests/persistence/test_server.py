"""Tests for the transactional persistence server (ACID + crash recovery)."""

import os
import pickle

import pytest

from repro.errors import EngineError, StorageError
from repro.persistence.server import PersistenceServer
from repro.persistence.store import TransactionError
from repro.persistence.wal import WriteAheadLog
from repro.storage.layout import pack_record


@pytest.fixture
def server(tmp_path):
    with PersistenceServer(tmp_path) as opened:
        yield opened


def seed_world(server):
    alice = server.create_character("alice", gold=100)
    bob = server.create_character("bob", gold=50)
    sword = server.grant_item(alice, "sword")
    return alice, bob, sword


class TestTransactions:
    def test_trade_moves_item_and_gold(self, server):
        alice, bob, sword = seed_world(server)
        result = server.trade_item(sword, seller_id=alice, buyer_id=bob,
                                   price=40)
        assert result.price == 40
        assert server.store.items[sword].owner_id == bob
        assert server.store.characters[alice].gold == 140
        assert server.store.characters[bob].gold == 10

    def test_failed_trade_changes_nothing(self, server):
        """Atomicity: the buyer cannot afford it -> no partial effects."""
        alice, bob, sword = seed_world(server)
        with pytest.raises(TransactionError):
            server.trade_item(sword, seller_id=alice, buyer_id=bob, price=51)
        assert server.store.items[sword].owner_id == alice
        assert server.store.characters[alice].gold == 100
        assert server.store.characters[bob].gold == 50

    def test_failed_trade_not_logged(self, server, tmp_path):
        alice, bob, sword = seed_world(server)
        before = server.last_transaction_id
        with pytest.raises(TransactionError):
            server.trade_item(sword, seller_id=bob, buyer_id=alice, price=1)
        assert server.last_transaction_id == before

    def test_transaction_ids_increase(self, server):
        alice, bob, sword = seed_world(server)
        first = server.trade_item(sword, alice, bob, 10).transaction_id
        second = server.trade_item(sword, bob, alice, 10).transaction_id
        assert second == first + 1

    def test_deposit_and_destroy(self, server):
        alice, _bob, sword = seed_world(server)
        server.deposit_gold(alice, 7)
        assert server.store.characters[alice].gold == 107
        server.destroy_item(sword)
        assert sword not in server.store.items

    def test_deposit_validation(self, server):
        alice, *_ = seed_world(server)
        with pytest.raises(TransactionError):
            server.deposit_gold(alice, 0)
        with pytest.raises(TransactionError):
            server.deposit_gold(999, 5)

    def test_gold_conservation_across_trades(self, server):
        alice, bob, sword = seed_world(server)
        before = server.store.total_gold()
        server.trade_item(sword, alice, bob, 25)
        server.trade_item(sword, bob, alice, 25)
        assert server.store.total_gold() == before


class TestCrashRecovery:
    def test_committed_trades_survive(self, tmp_path):
        server = PersistenceServer(tmp_path)
        alice, bob, sword = seed_world(server)
        server.trade_item(sword, alice, bob, 30)
        from repro.persistence.store import ItemStore

        expected = ItemStore.from_snapshot_bytes(server.store.snapshot_bytes())
        server.crash()

        recovered = PersistenceServer.recover(tmp_path)
        assert recovered.store.equals(expected)
        assert recovered.store.items[sword].owner_id == bob
        recovered.close()

    def test_recovery_after_clean_close(self, tmp_path):
        server = PersistenceServer(tmp_path)
        alice, bob, sword = seed_world(server)
        server.close()
        recovered = PersistenceServer(tmp_path)
        assert recovered.store.items[sword].owner_id == alice
        # And it can keep committing.
        recovered.trade_item(sword, alice, bob, 10)
        recovered.close()

    def test_crashed_server_rejects_commits(self, tmp_path):
        server = PersistenceServer(tmp_path)
        seed_world(server)
        server.crash()
        with pytest.raises(EngineError):
            server.create_character("late", 0)

    def test_torn_wal_tail_loses_only_last_transaction(self, tmp_path):
        server = PersistenceServer(tmp_path)
        alice, bob, sword = seed_world(server)
        server.trade_item(sword, alice, bob, 30)   # survives
        server.trade_item(sword, bob, alice, 30)   # will be torn
        server.crash()
        wal_path = tmp_path / WriteAheadLog.FILE_NAME
        with open(wal_path, "r+b") as handle:
            handle.seek(-5, 2)
            handle.truncate()
        recovered = PersistenceServer.recover(tmp_path)
        assert recovered.store.items[sword].owner_id == bob
        recovered.close()

    def test_unknown_record_type_refuses_recovery(self, tmp_path):
        """A whole record of a type this log does not write (here a
        type-19 commit decision) may carry committed state: recovery
        raises instead of skipping it."""
        server = PersistenceServer(tmp_path)
        seed_world(server)
        server.crash()
        wal_path = tmp_path / WriteAheadLog.FILE_NAME
        offset = os.path.getsize(wal_path)
        with open(wal_path, "ab") as handle:
            handle.write(pack_record(19, 1, 0, pickle.dumps("gid-1")))
        with pytest.raises(StorageError,
                           match=f"record type 19 at offset {offset}"):
            PersistenceServer.recover(tmp_path)

    def test_snapshots_bound_redo(self, tmp_path):
        server = PersistenceServer(tmp_path, snapshot_every=5)
        alice = server.create_character("alice", gold=1_000)
        bob = server.create_character("bob", gold=1_000)
        for _ in range(20):
            server.deposit_gold(alice, 1)
        expected_gold = server.store.characters[alice].gold
        server.crash()
        recovered = PersistenceServer.recover(tmp_path)
        assert recovered.store.characters[alice].gold == expected_gold
        assert recovered.store.characters[bob].gold == 1_000
        recovered.close()

    def test_recovered_server_continues_transaction_ids(self, tmp_path):
        server = PersistenceServer(tmp_path)
        seed_world(server)
        last = server.last_transaction_id
        server.crash()
        recovered = PersistenceServer.recover(tmp_path)
        assert recovered.last_transaction_id == last
        recovered.create_character("carol", 0)
        assert recovered.last_transaction_id == last + 1
        recovered.close()


class TestConfiguration:
    def test_bad_snapshot_cadence_rejected(self, tmp_path):
        with pytest.raises(EngineError):
            PersistenceServer(tmp_path, snapshot_every=0)


class TestWalCompaction:
    def test_compaction_reclaims_and_preserves_state(self, tmp_path):
        from repro.persistence.store import ItemStore

        server = PersistenceServer(tmp_path, snapshot_every=10_000)
        alice, bob, sword = seed_world(server)
        for _ in range(30):
            server.deposit_gold(alice, 1)
        expected = ItemStore.from_snapshot_bytes(server.store.snapshot_bytes())
        reclaimed = server.compact_wal()
        assert reclaimed > 0
        # State intact live...
        assert server.store.equals(expected)
        server.crash()
        # ...and through recovery.
        recovered = PersistenceServer.recover(tmp_path)
        assert recovered.store.equals(expected)
        # The id counter survives compaction (the snapshot record carries
        # the watermark), so global monotonicity holds across restarts.
        assert recovered.last_transaction_id == server.last_transaction_id
        recovered.deposit_gold(alice, 1)
        assert recovered.last_transaction_id == server.last_transaction_id + 1
        recovered.close()

    def test_compaction_without_snapshot_after_noop(self, tmp_path):
        from repro.persistence.wal import WriteAheadLog

        with WriteAheadLog(tmp_path) as wal:
            wal.log_transaction(1, [("noop",)])
            assert wal.compact() == 0  # no snapshot yet
