"""Tests for repro.platform.auth."""

import pytest

from repro.platform.auth import AuthService
from repro.platform.errors import AuthenticationError, UnknownAccountError


class TestAuthService:
    def test_register_login_validate(self, endpoint):
        auth = AuthService()
        auth.register(1, "secret")
        session = auth.login(1, "secret", endpoint, tick=0)
        assert auth.validate(session) == 1

    def test_wrong_password_rejected(self, endpoint):
        auth = AuthService()
        auth.register(1, "secret")
        with pytest.raises(AuthenticationError):
            auth.login(1, "wrong", endpoint, tick=0)

    def test_unknown_account_rejected(self, endpoint):
        auth = AuthService()
        with pytest.raises(UnknownAccountError):
            auth.login(9, "x", endpoint, tick=0)

    def test_duplicate_registration_rejected(self):
        auth = AuthService()
        auth.register(1, "a")
        with pytest.raises(ValueError):
            auth.register(1, "b")

    def test_login_endpoints_recorded(self, endpoint):
        auth = AuthService()
        auth.register(1, "pw")
        auth.login(1, "pw", endpoint, tick=0)
        auth.login(1, "pw", endpoint, tick=5)
        assert len(auth.login_endpoints(1)) == 2

    def test_drop_forgets_account(self, endpoint):
        auth = AuthService()
        auth.register(1, "pw")
        auth.drop(1)
        with pytest.raises(UnknownAccountError):
            auth.login(1, "pw", endpoint, tick=0)
        with pytest.raises(UnknownAccountError):
            auth.login_endpoints(1)

    def test_sessions_unique(self, endpoint):
        auth = AuthService()
        auth.register(1, "pw")
        a = auth.login(1, "pw", endpoint, tick=0)
        b = auth.login(1, "pw", endpoint, tick=0)
        assert a.session_id != b.session_id
