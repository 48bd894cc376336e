"""Deterministic random-number plumbing.

Every stochastic component in the simulator draws from a generator
derived from one root seed, namespaced by a string label. Two scenarios
built from the same seed therefore produce identical event streams, and
independent subsystems (population synthesis, AAS scheduling, organic
reciprocation, ...) never perturb each other's random state.
"""

from __future__ import annotations

import hashlib
from typing import Optional, Protocol

import numpy as np

#: The sanctioned RNG injection points. Every generator in the system
#: must be reachable from one of these (the whole-program linter's API003
#: taint rule reads this declaration to know its roots); add a name here
#: only when introducing a new, seed-derived construction path.
RNG_ROOTS: tuple[str, ...] = ("derive_rng", "SeedSequenceFactory")


class SupportsCounter(Protocol):
    """Write-only counter shape (structurally, a repro.obs Counter)."""

    def inc(self, amount: int = 1) -> None: ...


class SupportsObs(Protocol):
    """The slice of the Observability facade this module touches.

    ``util`` sits *below* ``obs`` in the layer stack (ARCH001), so the
    telemetry handle arrives duck-typed: the composition root passes a
    real ``Observability`` down, and this module never imports it.
    """

    def counter(self, name: str, **labels: str) -> SupportsCounter: ...


class _NullCounter:
    __slots__ = ()

    def inc(self, amount: int = 1) -> None:
        return None


_NULL_COUNTER = _NullCounter()


def _label_entropy(label: str) -> int:
    """Map a textual label to a stable 64-bit integer.

    Python's builtin ``hash`` is salted per process, so we use BLAKE2 to
    keep derivations reproducible across runs and machines.
    """
    digest = hashlib.blake2b(label.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def derive_rng(seed: int, label: str) -> np.random.Generator:
    """Return a generator unique to ``(seed, label)``.

    >>> a = derive_rng(7, "population")
    >>> b = derive_rng(7, "population")
    >>> float(a.random()) == float(b.random())
    True
    """
    return np.random.default_rng(np.random.SeedSequence([seed, _label_entropy(label)]))


class SeedSequenceFactory:
    """Hands out namespaced generators derived from a single root seed.

    The factory memoizes generators by label so that repeated lookups of
    the same subsystem share one stream (and therefore one evolving
    state), while distinct labels are statistically independent.

    When built with an ``obs`` handle the factory counts its work:
    ``util.rng.derivations`` per new stream derived (by path) and
    ``util.rng.lookups`` per memoized hit. perfbench reports their sum
    as ``obs.cost_units.rng`` (classified by :mod:`repro.obs.prof`).
    Stream *derivations*, not individual draws, are the countable RNG
    unit — wrapping every Generator method would tax the hot paths.
    """

    def __init__(self, seed: int, obs: Optional[SupportsObs] = None):
        self.seed = int(seed)
        self._cache: dict[str, np.random.Generator] = {}
        self._obs = obs
        self._obs_get: SupportsCounter = _NULL_COUNTER
        self._obs_fresh: SupportsCounter = _NULL_COUNTER
        self._obs_spawn: SupportsCounter = _NULL_COUNTER
        self._obs_hits: SupportsCounter = _NULL_COUNTER
        if obs is not None:
            self._obs_get = obs.counter("util.rng.derivations", path="get")
            self._obs_fresh = obs.counter("util.rng.derivations", path="fresh")
            self._obs_spawn = obs.counter("util.rng.derivations", path="spawn")
            self._obs_hits = obs.counter("util.rng.lookups", path="hit")

    def __getstate__(self) -> dict:
        # plain capture; the counters pickle alongside (they are shared
        # with the study's registry, and pickling keeps that identity)
        return dict(self.__dict__)

    def __setstate__(self, state: dict) -> None:
        # factories pickled before the counters existed resurface un-wired
        self.__dict__.update(state)
        for attr in ("_obs", "_obs_get", "_obs_fresh", "_obs_spawn", "_obs_hits"):
            self.__dict__.setdefault(attr, _NULL_COUNTER if attr != "_obs" else None)

    def get(self, label: str) -> np.random.Generator:
        """Return the (memoized) generator for ``label``."""
        if label not in self._cache:
            self._obs_get.inc()
            self._cache[label] = derive_rng(self.seed, label)
        else:
            self._obs_hits.inc()
        return self._cache[label]

    def fresh(self, label: str) -> np.random.Generator:
        """Return a new, non-memoized generator for ``label``."""
        self._obs_fresh.inc()
        return derive_rng(self.seed, label)

    def spawn(self, label: str) -> "SeedSequenceFactory":
        """Derive a child factory whose labels live in a sub-namespace."""
        self._obs_spawn.inc()
        return SeedSequenceFactory(self.seed ^ _label_entropy(label), obs=self._obs)

    # -- explicit state capture (the repro.fleet snapshot contract) -----

    def state_dict(self) -> dict[str, dict]:
        """Every memoized generator's bit-generator state, by label.

        The values are the plain-python dicts numpy exposes via
        ``Generator.bit_generator.state`` — JSON-serializable, so a
        snapshot envelope can record (and later verify) the exact RNG
        position without trusting opaque pickle bytes.
        """
        return {
            label: dict(self._cache[label].bit_generator.state)
            for label in sorted(self._cache)
        }

    def load_state_dict(self, states: dict[str, dict]) -> None:
        """Restore memoized generators to the captured positions.

        Labels absent from ``states`` are left untouched; labels not yet
        memoized are derived first (so their stream type matches) and
        then fast-forwarded to the recorded state.
        """
        for label in sorted(states):
            self.get(label).bit_generator.state = states[label]
