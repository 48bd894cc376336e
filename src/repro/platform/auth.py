"""Credentials and sessions.

AAS customers hand their username/password to the service (Section
3.3.1), which logs in like any client. Every login is logged with its
network endpoint so the geolocation analyses (Section 5.1) can run; a
deleted account's sessions stop validating.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field

from repro.netsim.client import ClientEndpoint
from repro.platform.errors import AuthenticationError, UnknownAccountError
from repro.platform.models import AccountId


def _hash_password(password: str, salt: str) -> str:
    return hashlib.blake2b(f"{salt}:{password}".encode("utf-8"), digest_size=16).hexdigest()


@dataclass(frozen=True)
class Session:
    """An authenticated session token bound to one account."""

    session_id: int
    account_id: AccountId


@dataclass
class _Credential:
    password_hash: str
    salt: str
    login_endpoints: list[ClientEndpoint] = field(default_factory=list)
    login_ticks: list[int] = field(default_factory=list)


class AuthService:
    """Password store + session validation."""

    def __init__(self):
        self._credentials: dict[AccountId, _Credential] = {}
        self._session_ids = itertools.count(1)

    def register(self, account_id: AccountId, password: str) -> None:
        if account_id in self._credentials:
            raise ValueError(f"account {account_id} already has credentials")
        salt = f"salt-{account_id}"
        self._credentials[account_id] = _Credential(
            password_hash=_hash_password(password, salt), salt=salt
        )

    def login(
        self, account_id: AccountId, password: str, endpoint: ClientEndpoint, tick: int
    ) -> Session:
        """Authenticate and mint a session; logs the login origin."""
        credential = self._credentials.get(account_id)
        if credential is None:
            raise UnknownAccountError(f"no credentials for account {account_id}")
        if _hash_password(password, credential.salt) != credential.password_hash:
            raise AuthenticationError("bad password")
        credential.login_endpoints.append(endpoint)
        credential.login_ticks.append(tick)
        return Session(
            session_id=next(self._session_ids),
            account_id=account_id,
        )

    def validate(self, session: Session) -> AccountId:
        """Return the session's account, or raise if the account is gone."""
        if session.account_id not in self._credentials:
            raise UnknownAccountError(f"account {session.account_id} is gone")
        return session.account_id

    def login_endpoints(self, account_id: AccountId) -> list[ClientEndpoint]:
        """Endpoint history of the account's logins (for geolocation)."""
        credential = self._credentials.get(account_id)
        if credential is None:
            raise UnknownAccountError(f"no credentials for account {account_id}")
        return list(credential.login_endpoints)

    def drop(self, account_id: AccountId) -> None:
        """Forget an account's credentials (account deletion)."""
        self._credentials.pop(account_id, None)
