"""Tests for the exception hierarchy."""

import pytest

from repro import errors


class TestHierarchy:
    def test_everything_derives_from_repro_error(self):
        for name in dir(errors):
            value = getattr(errors, name)
            if isinstance(value, type) and issubclass(value, Exception):
                assert issubclass(value, errors.ReproError), name

    def test_storage_specializations(self):
        assert issubclass(errors.CorruptCheckpointError, errors.StorageError)
        assert issubclass(
            errors.NoConsistentCheckpointError, errors.StorageError
        )
        assert issubclass(errors.GeometryError, errors.ConfigurationError)

    def test_catchable_as_base(self):
        with pytest.raises(errors.ReproError):
            raise errors.SimulationError("boom")

    def test_transaction_error_in_hierarchy(self):
        from repro.persistence.store import TransactionError

        assert issubclass(TransactionError, errors.ReproError)

    def test_session_error_in_hierarchy(self):
        from repro.frontend.sessions import SessionError

        assert issubclass(SessionError, errors.ReproError)
