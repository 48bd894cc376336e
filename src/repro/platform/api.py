"""API surfaces over the platform facade.

Section 2: "Instagram provides a public OAuth-based API ... However,
this API is rate limited in a manner that precludes broad abusive use.
Thus, most commercial account automation services bypass these
limitations by reverse engineering the private API used by the Instagram
mobile client and generating spoofed requests to appear as valid mobile
client actions."

* :class:`PublicGraphAPI` — per-account sliding-window rate limits on
  write actions; requests carry a ``web-oauth`` fingerprint family.
* :class:`PrivateMobileAPI` — the mobile-client surface. It accepts
  whatever fingerprint the caller presents (spoofed or stock) and has
  only a very high sanity ceiling, so abuse prevention must happen in
  countermeasures, exactly as in the paper.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.netsim.client import ClientEndpoint
from repro.platform.auth import Session
from repro.platform.errors import RateLimitExceededError
from repro.platform.instagram import InstagramPlatform
from repro.platform.models import AccountId, ApiSurface, Media, MediaId
from repro.platform.ratelimit import SlidingWindowLimiter
from repro.util.timeutils import hours

#: Public-API budget: 60 write actions per account per hour — generous for
#: humans, useless for an AAS that needs hundreds of actions per day
#: across thousands of accounts without attribution.
PUBLIC_API_LIMIT_PER_HOUR = 60

#: Private-API sanity ceiling per account per hour. Real clients never get
#: near it; it exists so runaway automation cannot wedge the simulation.
PRIVATE_API_CEILING_PER_HOUR = 2000


class _BaseAPI:
    """Shared dispatch into the platform facade."""

    surface: ApiSurface

    def __init__(self, platform: InstagramPlatform, limiter: SlidingWindowLimiter):
        self._platform = platform
        self._limiter = limiter

    def _charge(self, session: Session) -> None:
        now = self._platform.clock.now
        if not self._limiter.allow(session.account_id, now):
            raise RateLimitExceededError(
                f"account {session.account_id} exceeded {self.surface.value} rate limit"
            )

    def like(self, session: Session, media_id: MediaId, endpoint: ClientEndpoint) -> int:
        self._charge(session)
        return self._platform.like(session, media_id, endpoint, api=self.surface)

    def follow(self, session: Session, target: AccountId, endpoint: ClientEndpoint) -> int:
        self._charge(session)
        return self._platform.follow(session, target, endpoint, api=self.surface)

    def unfollow(self, session: Session, target: AccountId, endpoint: ClientEndpoint) -> int:
        self._charge(session)
        return self._platform.unfollow(session, target, endpoint, api=self.surface)

    def comment(
        self, session: Session, media_id: MediaId, text: str, endpoint: ClientEndpoint
    ) -> int:
        self._charge(session)
        return self._platform.comment(session, media_id, text, endpoint, api=self.surface)

    def post(
        self,
        session: Session,
        endpoint: ClientEndpoint,
        caption: str = "",
        hashtags: tuple[str, ...] = (),
    ) -> tuple[int, Media]:
        self._charge(session)
        return self._platform.post(session, endpoint, caption=caption, hashtags=hashtags, api=self.surface)

    def submit_batch(
        self, session: Session, requests: Sequence[tuple], endpoint: ClientEndpoint
    ) -> list[int]:
        """Submit one client's burst of actions as a single request.

        ``requests`` holds ``("like", media_id)``, ``("follow", target)``,
        ``("unfollow", target)`` and ``("comment", media_id, text)``
        tuples, dispatched in order. The rate limiter is charged for the
        whole burst in one :meth:`SlidingWindowLimiter.allow_batch` call —
        the same quota bookkeeping as per-action charging — and the
        granted prefix executes inside the platform's action-batch scope,
        so its log rows land in one bulk append (or in the enclosing
        scope's, when one is open). If the window cannot cover the burst,
        the granted prefix still executes (exactly what a per-action loop
        would have delivered before hitting the limit) and
        :class:`RateLimitExceededError` is raised afterwards.

        Returns the granted requests' action ids, in request order.
        """
        n = len(requests)
        granted = self._limiter.allow_batch(session.account_id, self._platform.clock.now, n)
        platform = self._platform
        results: list[int] = []
        with platform.action_batch():
            for kind, *args in requests[:granted]:
                if kind == "like":
                    results.append(platform.like(session, args[0], endpoint, api=self.surface))
                elif kind == "follow":
                    results.append(platform.follow(session, args[0], endpoint, api=self.surface))
                elif kind == "unfollow":
                    results.append(platform.unfollow(session, args[0], endpoint, api=self.surface))
                elif kind == "comment":
                    results.append(
                        platform.comment(session, args[0], args[1], endpoint, api=self.surface)
                    )
                else:
                    raise ValueError(f"unknown batch request kind {kind!r}")
        if granted < n:
            raise RateLimitExceededError(
                f"account {session.account_id} exceeded {self.surface.value} rate limit "
                f"({granted}/{n} batch requests granted)"
            )
        return results


class PublicGraphAPI(_BaseAPI):
    """The OAuth API: strongly rate limited, clearly fingerprinted."""

    surface = ApiSurface.PUBLIC_OAUTH

    def __init__(self, platform: InstagramPlatform, limit_per_hour: Optional[int] = None):
        limit = limit_per_hour if limit_per_hour is not None else PUBLIC_API_LIMIT_PER_HOUR
        super().__init__(
            platform,
            SlidingWindowLimiter(limit, hours(1), obs=platform.obs, name=self.surface.value),
        )


class PrivateMobileAPI(_BaseAPI):
    """The reverse-engineered mobile surface AASs spoof requests against."""

    surface = ApiSurface.PRIVATE_MOBILE

    def __init__(self, platform: InstagramPlatform, ceiling_per_hour: Optional[int] = None):
        ceiling = ceiling_per_hour if ceiling_per_hour is not None else PRIVATE_API_CEILING_PER_HOUR
        super().__init__(
            platform,
            SlidingWindowLimiter(ceiling, hours(1), obs=platform.obs, name=self.surface.value),
        )
