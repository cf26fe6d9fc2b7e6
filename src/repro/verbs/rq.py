"""Receive queues: the FIFO of posted receive work requests.

One type serves both places a receive can come from: a queue pair's own
receive queue (:attr:`QueuePair.rq <repro.verbs.qp.QueuePair.rq>`) and a
shared receive queue (:class:`~repro.verbs.srq.SharedReceiveQueue`, a
subclass that adds the pool's capacity and occupancy accounting).

Bring-up posts a long run of interchangeable receives — one backing SGE,
consecutive wr_ids — of which only the consumed prefix ever turns into
completions: EXS pre-posts one RECV per credit on every connection, an
SRQ pool its whole depth.  :meth:`ReceiveQueue.prefill` books such a run
in O(1), the way ``ibv_post_recv`` takes the run as one WR chain.  The run
sits at the head of the queue, ahead of everything posted after it, and
each of its ``RecvWR(wr_id, sge)`` is built when it is consumed.
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

from .errors import VerbsError
from .wr import SGE, RecvWR

__all__ = ["ReceiveQueue"]


class ReceiveQueue:
    """A FIFO of posted receive WRs whose head may be a lazy run.

    Every observable — :meth:`take` order, wr_ids, SGEs and contexts,
    ``len`` — is that of posting ``RecvWR(wr_id_start + i, sge)`` for each
    ``i`` in order, then each later WR through :meth:`append`.
    """

    __slots__ = ("_wrs", "_run", "_run_next_id", "_run_sge")

    def __init__(self) -> None:
        #: WRs posted one by one, behind the lazy run: a list built on the
        #: first (an SRQ-attached or prefilled queue may never post one)
        self._wrs: Union[List[RecvWR], Tuple[()]] = ()
        # the lazy run at the head: WRs left, the next one's wr_id, their SGE
        self._run = 0
        self._run_next_id = 0
        self._run_sge: Optional[SGE] = None

    def append(self, wr: RecvWR) -> None:
        """Post one receive WR at the tail."""
        wrs = self._wrs
        if type(wrs) is tuple:
            wrs = self._wrs = []
        wrs.append(wr)

    def prefill(self, count: int, sge: Optional[SGE], wr_id_start: int) -> None:
        """Post ``RecvWR(wr_id_start + i, sge)`` for ``i < count`` in O(1).

        The run must be the head of the queue: it may start on a queue
        holding no one-by-one WRs, or extend the current run (same SGE,
        the next wr_id) before anything else is posted.  Anything else
        would reorder the FIFO, so it raises.
        """
        if count < 0:
            raise VerbsError("prefill count must be non-negative")
        if not count:
            return
        if self._wrs:
            raise VerbsError("prefill behind receives posted one by one would jump the queue")
        if not self._run:
            self._run_next_id = wr_id_start
            self._run_sge = sge
        elif self._run_next_id + self._run != wr_id_start or self._run_sge != sge:
            raise VerbsError("prefill must extend the lazy run contiguously "
                             "(same SGE, next wr_id)")
        self._run += count

    def take(self) -> RecvWR:
        """Consume the head WR (the queue must be non-empty)."""
        if self._run:
            self._run -= 1
            wr_id = self._run_next_id
            self._run_next_id = wr_id + 1
            return RecvWR(wr_id, self._run_sge)
        return self._wrs.pop(0)

    def __len__(self) -> int:
        return self._run + len(self._wrs)
