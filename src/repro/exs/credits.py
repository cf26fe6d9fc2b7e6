"""Send-credit accounting (paper §II-B).

"Each side of an RDMA connection will post *n* RECV transactions at
startup, prior to connection establishment.  Each side then gives the other
*n* send credits.  A sender consumes a credit whenever it performs an
action, such as SEND, that would consume a RECV at the receiver.  The
receiver returns credits by periodic acknowledgment messages."

Both control SENDs and WRITE-WITH-IMM data transfers consume a credit.
Credits are returned as a **cumulative repost counter** piggybacked on
every outbound control message (plus an explicit update when there is no
other traffic), which makes the protocol idempotent under any delivery
timing.  A small reserve is held back for control messages so the data
path can never starve the control path into deadlock.
"""

from __future__ import annotations

__all__ = ["CreditManager", "CreditError"]


class CreditError(RuntimeError):
    """Credit accounting was violated (would have caused RNR on hardware)."""


class CreditManager:
    """Tracks both directions of credit flow for one connection endpoint."""

    def __init__(self, initial_remote: int, control_reserve: int = 2) -> None:
        if initial_remote <= control_reserve:
            raise CreditError("initial credits must exceed the control reserve")
        #: credits the peer granted us at startup (its posted RECV count)
        self.initial_remote = initial_remote
        self.control_reserve = control_reserve
        #: messages we have sent that consumed a peer RECV
        self.consumed_total = 0
        #: peer's cumulative repost counter, as last reported to us
        self.peer_repost_cum = 0
        #: credits we may spend: ``initial_remote + peer_repost_cum -
        #: consumed_total``, kept current by :meth:`consume` and grants
        self.available = initial_remote

        #: RECVs we have reposted locally (cumulative), to be granted to peer
        self.local_repost_cum = 0
        #: the repost count we last told the peer about
        self.granted_cum = 0

    # -- outbound (are we allowed to send?) ------------------------------
    def can_send_data(self, n: int = 1) -> bool:
        """True if *n* data messages may be sent, keeping the control reserve."""
        return self.available - n >= self.control_reserve

    def consume(self, n: int = 1) -> None:
        if n > self.available:
            raise CreditError(f"consuming {n} credits with only {self.available} available")
        self.consumed_total += n
        self.available -= n

    def on_peer_grant(self, repost_cum: int) -> bool:
        """Process a (possibly stale) cumulative grant; True if it helped."""
        if repost_cum <= self.peer_repost_cum:
            return False
        self.available += repost_cum - self.peer_repost_cum
        self.peer_repost_cum = repost_cum
        return True

    # -- inbound (credits we owe the peer) --------------------------------
    def grant_now(self) -> int:
        """Value to piggyback on an outbound control message."""
        self.granted_cum = self.local_repost_cum
        return self.granted_cum
