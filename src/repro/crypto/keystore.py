"""Key management for a deployment.

One :class:`KeyStore` is created per deployment.  It derives, from a single
seed, a signing key for every replica, client and trusted component, plus
pairwise MAC keys for authenticated channels.  Replica code receives only its
*own* signing key and the store's verify-only surface, which is how the
"byzantine replicas can impersonate each other but not honest replicas"
assumption of Section 2 is enforced in the simulation.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional

from ..common.errors import InvalidSignature, UnknownKey
from .digest import canonical_bytes
from .signatures import Mac, MacKey, Signature, SigningKey, verify_with_key


def _derive(seed: int, *parts: str) -> bytes:
    material = "/".join((str(seed),) + parts).encode()
    return hashlib.sha256(material).digest()


@dataclass(slots=True)
class KeyStoreStats:
    """Verification-cache effectiveness counters."""

    verify_cache_hits: int = 0
    verify_cache_misses: int = 0

    @property
    def lookups(self) -> int:
        """Total verification-cache lookups."""
        return self.verify_cache_hits + self.verify_cache_misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when unused)."""
        lookups = self.lookups
        return self.verify_cache_hits / lookups if lookups else 0.0


class KeyStore:
    """Holds every secret in the deployment and verifies on behalf of all.

    Verification is memoised: a deployment-wide store sees the same
    ``(message, signature)`` pair once per receiving replica — an attestation
    travelling in a Preprepare is re-verified ``n - 1`` times — so outcomes
    are cached on the canonical encoding.  The cache is bounded LRU and
    caches *both* outcomes (a forged signature stays invalid on every
    lookup).  Simulated verification CPU cost is charged by the replica
    runtime regardless; the cache only removes redundant real-world work.
    """

    def __init__(self, seed: int = 0, verify_cache_size: int = 8192) -> None:
        self._seed = seed
        self._signing: dict[str, SigningKey] = {}
        self._macs: dict[tuple[str, str], MacKey] = {}
        self._verify_cache: OrderedDict[tuple[str, bytes, bytes], bool] = OrderedDict()
        self._verify_cache_size = verify_cache_size
        self.stats = KeyStoreStats()
        #: per-scope cache counters; populated only when a resolver is set.
        self.scoped_stats: dict[object, KeyStoreStats] = {}
        self._scope_resolver: Optional[Callable[[str], Optional[object]]] = None
        #: signer -> resolved scope memo; identities are stable for a
        #: deployment's lifetime, so the resolver runs once per signer
        #: instead of on every verification (a hot path).
        self._scope_memo: dict[str, Optional[object]] = {}
        #: scope -> private LRU, populated only after
        #: :meth:`split_verify_cache_by_scope`; ``None`` means one shared
        #: cache (the default).
        self._split_caches: Optional[dict[object, OrderedDict]] = None

    def split_verify_cache_by_scope(self) -> None:
        """Give every scope its own LRU domain (each with the full size).

        With the default shared cache, a hot scope's entries can evict
        another scope's under saturation; after splitting, each scope is
        bounded independently, so cross-scope eviction contention is
        structurally impossible.  Requires a scope resolver; signers the
        resolver maps to ``None`` share one residual domain.  Splitting only
        changes real-world caching behaviour, never verification outcomes —
        simulated rows are identical either way.
        """
        if self._scope_resolver is None:
            raise UnknownKey(
                "split_verify_cache_by_scope needs a scope resolver "
                "(call set_scope_resolver first)")
        if self._split_caches is None:
            self._split_caches = {}
            self._verify_cache.clear()

    @property
    def verify_cache_split(self) -> bool:
        """Whether the verification cache is split into per-scope domains."""
        return self._split_caches is not None

    def verify_cache_sizes(self) -> dict[object, int]:
        """Entry counts per cache domain (``{None: n}`` when unsplit)."""
        if self._split_caches is None:
            return {None: len(self._verify_cache)}
        return {scope: len(cache)
                for scope, cache in self._split_caches.items()}

    def set_scope_resolver(
            self, resolver: Optional[Callable[[str], Optional[object]]]) -> None:
        """Attribute cache hits/misses to scopes derived from the signer.

        Sharded deployments share one deployment-global store across every
        consensus group; before deciding whether that shared cache contends
        at high shard counts, its traffic has to be attributable per group.
        ``resolver(signer_identity)`` returns a scope key (e.g. the shard
        index) or ``None`` for identities outside any scope; counters land
        in :attr:`scoped_stats` keyed by scope.  With no resolver installed
        (the default) the per-scope accounting costs nothing.
        """
        self._scope_resolver = resolver
        self._scope_memo.clear()
        if self._split_caches is not None:
            # Old scopes are meaningless under a new resolver; start over.
            self._split_caches = {} if resolver is not None else None

    def _scope_of(self, signer: str) -> Optional[object]:
        try:
            return self._scope_memo[signer]
        except KeyError:
            scope = self._scope_memo[signer] = self._scope_resolver(signer)
            return scope

    def _scoped(self, signer: str) -> Optional[KeyStoreStats]:
        if self._scope_resolver is None:
            return None
        scope = self._scope_of(signer)
        if scope is None:
            return None
        stats = self.scoped_stats.get(scope)
        if stats is None:
            stats = self.scoped_stats[scope] = KeyStoreStats()
        return stats

    def _cache_for(self, signer: str) -> OrderedDict:
        """The LRU domain serving ``signer`` (shared unless split)."""
        if self._split_caches is None:
            return self._verify_cache
        scope = self._scope_of(signer)
        cache = self._split_caches.get(scope)
        if cache is None:
            cache = self._split_caches[scope] = OrderedDict()
        return cache

    # ------------------------------------------------------------------ setup
    def register(self, identity: str) -> SigningKey:
        """Create (or return) the signing key for ``identity``."""
        if identity not in self._signing:
            secret = _derive(self._seed, "sign", identity)
            self._signing[identity] = SigningKey(identity, secret)
        return self._signing[identity]

    def register_all(self, identities: Iterable[str]) -> None:
        """Register a batch of identities."""
        for identity in identities:
            self.register(identity)

    def signing_key(self, identity: str) -> SigningKey:
        """Return the signing key for ``identity`` (must be registered)."""
        try:
            return self._signing[identity]
        except KeyError:
            raise UnknownKey(f"no signing key registered for {identity!r}") from None

    def identities(self) -> list[str]:
        """All registered identities, sorted for reproducibility."""
        return sorted(self._signing)

    # ------------------------------------------------------------ signatures
    def sign(self, identity: str, message: Any) -> Signature:
        """Sign ``message`` as ``identity`` (must be registered)."""
        return self.signing_key(identity).sign(message)

    def verify(self, message: Any, signature: Signature) -> None:
        """Verify a signature; raises on unknown signer or mismatch.

        Outcomes are memoised on ``(signer, canonical encoding, signature
        value)``; see the class docstring.
        """
        self.verify_encoded(canonical_bytes(message), signature)

    def verify_encoded(self, encoded: bytes, signature: Signature) -> None:
        """Verify a signature over an already canonically encoded message.

        The fast path for callers holding a memoised encoding (see
        :func:`repro.protocols.messages.signed_part_bytes`); semantics are
        identical to :meth:`verify`.
        """
        key = self.signing_key(signature.signer)
        cache_key = (signature.signer, encoded, signature.value)
        scoped = self._scoped(signature.signer)
        # Inline the unsplit fast path: one attribute check instead of a
        # method call per verification (this is the crypto hot loop).
        cache = (self._verify_cache if self._split_caches is None
                 else self._cache_for(signature.signer))
        cached = cache.get(cache_key)
        if cached is not None:
            cache.move_to_end(cache_key)
            self.stats.verify_cache_hits += 1
            if scoped is not None:
                scoped.verify_cache_hits += 1
            if not cached:
                raise InvalidSignature(
                    f"signature by {signature.signer!r} does not verify")
            return
        self.stats.verify_cache_misses += 1
        if scoped is not None:
            scoped.verify_cache_misses += 1
        try:
            verify_with_key(key, None, signature, encoded=encoded)
        except InvalidSignature:
            self._remember_verification(cache, cache_key, False)
            raise
        self._remember_verification(cache, cache_key, True)

    def _remember_verification(self, cache: OrderedDict,
                               cache_key: tuple[str, bytes, bytes],
                               outcome: bool) -> None:
        cache[cache_key] = outcome
        if len(cache) > self._verify_cache_size:
            cache.popitem(last=False)

    def is_valid(self, message: Any, signature: Signature) -> bool:
        """Boolean form of :meth:`verify` for callers that prefer not to raise."""
        try:
            self.verify(message, signature)
        except Exception:
            return False
        return True

    def is_valid_encoded(self, encoded: bytes, signature: Signature) -> bool:
        """Boolean form of :meth:`verify_encoded`."""
        try:
            self.verify_encoded(encoded, signature)
        except Exception:
            return False
        return True

    # ------------------------------------------------------------------ MACs
    def mac_key(self, sender: str, receiver: str) -> MacKey:
        """Shared MAC key for the ordered channel ``sender -> receiver``."""
        pair = (sender, receiver)
        if pair not in self._macs:
            # The channel secret is symmetric in the two endpoints so that
            # either side can authenticate to the other, like a shared CMAC key.
            lo, hi = sorted(pair)
            secret = _derive(self._seed, "mac", lo, hi)
            self._macs[pair] = MacKey(sender, receiver, secret)
        return self._macs[pair]

    def mac(self, sender: str, receiver: str, message: Any) -> Mac:
        """Authenticate ``message`` on the channel ``sender -> receiver``."""
        return self.mac_key(sender, receiver).generate(message)

    def verify_mac(self, message: Any, mac: Mac) -> None:
        """Verify a channel MAC; raises :class:`InvalidMac` on mismatch."""
        self.mac_key(mac.sender, mac.receiver).verify(message, mac)

    # ------------------------------------------------------------- utilities
    def verifier(self) -> "KeyStoreVerifier":
        """A verify-only view safe to hand to replica and adversary code."""
        return KeyStoreVerifier(self)


class KeyStoreVerifier:
    """Verify-only facade over a :class:`KeyStore`.

    Byzantine strategies receive this object (plus the signing keys of the
    replicas they control), so they can check any signature but forge none.
    """

    def __init__(self, store: KeyStore) -> None:
        self._store = store

    def verify(self, message: Any, signature: Signature) -> None:
        self._store.verify(message, signature)

    def verify_encoded(self, encoded: bytes, signature: Signature) -> None:
        self._store.verify_encoded(encoded, signature)

    def is_valid(self, message: Any, signature: Signature) -> bool:
        return self._store.is_valid(message, signature)

    def is_valid_encoded(self, encoded: bytes, signature: Signature) -> bool:
        return self._store.is_valid_encoded(encoded, signature)

    def verify_mac(self, message: Any, mac: Mac) -> None:
        self._store.verify_mac(message, mac)
