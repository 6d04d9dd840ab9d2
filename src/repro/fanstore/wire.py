"""Typed request/reply envelopes for the daemon wire protocol (v2).

Every request body is one typed :class:`Request` envelope carrying
every field by name, encoded as a *self-identifying* tuple:

    (WIRE_MAGIC, WIRE_VERSION, subject, reply_tag,
     trace_ctx, deadline, epoch, batch)

``WIRE_MAGIC`` contains NUL bytes, which :func:`~repro.fanstore.
metadata.normalize` never produces in a path, so no body that merely
starts with a subject can pass for an envelope. Anything that is not
an envelope is rejected with :class:`~repro.errors.WireFormatError`.
Versions above :data:`WIRE_VERSION` decode their known prefix (fields
are only ever appended), so a v2 server keeps serving v3 clients.

There is one codec in each direction. Requests are built with
``Request(...).encode()`` and read with :func:`decode_request`; replies
are built with ``Reply(...).encode()`` and read with
:func:`decode_reply`. A reply is a ``(marker, value)`` pair:
``(True, data)``, ``(False, subject_or_None)``, ``(OVERLOAD,
retry_after)``, ``(FENCED, server_epoch)``, and, for batch items only,
``EXPIRED`` (the server dropped one batch item whose deadline had
lapsed) and ``FAILED`` (one batch item errored — only its waiter falls
back, the rest of the batch is unaffected). A batch reply is ``(BATCH,
(encoded item replies...))`` in request-item order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.comm.deadline import wire_deadline
from repro.errors import WireFormatError

#: first element of every v2 envelope. The embedded NULs keep it out of
#: the normalized-path value space, so version dispatch is collision-free.
WIRE_MAGIC = "\x00fanstore-wire\x00"

#: the envelope revision this module encodes. Decoders accept any
#: version >= 2 by reading the known 8-field prefix.
WIRE_VERSION = 2

#: reply marker: the request was shed by admission control; the second
#: element is the server's suggested back-off in seconds. Never a valid
#: ``ok`` bool, so legacy callers cannot mistake it for data.
OVERLOAD = "__overloaded__"

#: reply marker: a mutating request carried a fencing token older than
#: the server's membership view epoch; the second element is the
#: server's epoch.
FENCED = "__stale_epoch__"

#: reply marker (batch items only): the item's deadline had expired when
#: the server got to it, so it was dropped rather than served.
EXPIRED = "__deadline_expired__"

#: reply marker (batch items only): this item failed in a way that has
#: no batched representation (integrity failure, malformed subject);
#: its waiter retries through the classic single-request ladder.
FAILED = "__item_failed__"

#: first element of a batched reply; the second is a tuple of encoded
#: per-item replies in request order.
BATCH = "__batch_reply__"


@dataclass(frozen=True)
class Request:
    """One daemon request body, fields by name.

    ``subject`` is the request's object (a normalized path for
    ``fetch``/``stat``, a FileRecord for ``write_meta``, ``None`` for a
    batch envelope). ``reply_tag`` is the caller-chosen tag the answer
    comes back on. ``trace_ctx`` is the sender's tracing wire context
    (or None), ``deadline`` the absolute ``time.monotonic()`` expiry (or
    None), ``epoch`` the sender's membership-view fencing token (or
    None). ``batch`` is a tuple of ``(kind, subject, deadline)`` item
    triples when this envelope carries a batched flush, else None.
    """

    subject: Any
    reply_tag: int
    trace_ctx: tuple | None = None
    deadline: float | None = None
    epoch: int | None = None
    batch: tuple | None = None

    def encode(self) -> tuple:
        """The versioned wire tuple for this envelope."""
        return (
            WIRE_MAGIC,
            WIRE_VERSION,
            self.subject,
            self.reply_tag,
            self.trace_ctx,
            self.deadline,
            self.epoch,
            self.batch,
        )


def decode_request(body: Any) -> Request:
    """Decode one wire body — a v2 envelope — into a validated
    :class:`Request`.

    A body that is not an envelope, and hostile headers, surface as
    :class:`WireFormatError` (the server counts them malformed), never
    as a crash: the deadline is sanitized
    through :func:`~repro.comm.deadline.wire_deadline`, the reply tag
    and epoch are type-checked, and a batch must be a tuple.
    """
    if not (
        isinstance(body, tuple)
        and len(body) >= 2
        and body[0] == WIRE_MAGIC
    ):
        raise WireFormatError(f"not a wire envelope: {body!r}")
    version = body[1]
    if not isinstance(version, int) or version < WIRE_VERSION:
        raise WireFormatError(
            f"bad envelope version: {version!r} (oldest supported is "
            f"{WIRE_VERSION})"
        )
    if len(body) < 8:
        raise WireFormatError(
            f"v{version} envelope has {len(body)} fields; "
            "8 (magic, version, subject, reply_tag, trace_ctx, "
            "deadline, epoch, batch) are required"
        )
    # forward compatibility: fields are append-only, so a newer
    # sender's extras are ignorable rather than fatal
    _, _, subject, reply_tag, trace_ctx, deadline, epoch, batch = body[:8]
    request = Request(
        subject=subject,
        reply_tag=reply_tag,
        trace_ctx=trace_ctx,
        deadline=wire_deadline(deadline),
        epoch=epoch,
        batch=batch,
    )
    if (
        isinstance(request.reply_tag, bool)
        or not isinstance(request.reply_tag, int)
        or request.reply_tag < 0
    ):
        raise WireFormatError(f"bad reply tag: {request.reply_tag!r}")
    if request.epoch is not None and (
        isinstance(request.epoch, bool) or not isinstance(request.epoch, int)
    ):
        raise WireFormatError(f"bad fencing epoch: {request.epoch!r}")
    if request.batch is not None and not isinstance(request.batch, tuple):
        raise WireFormatError(f"bad batch payload: {request.batch!r}")
    return request


@dataclass(frozen=True)
class Reply:
    """One reply, named; ``encode()`` gives its ``(marker, value)``
    wire pair."""

    status: str
    value: Any = None

    OK = "ok"
    MISS = "miss"
    OVERLOAD = "overload"
    FENCED = "fenced"
    EXPIRED = "expired"
    FAILED = "failed"

    def encode(self) -> tuple:
        try:
            return (_MARKER_OF[self.status], self.value)
        except KeyError:
            raise WireFormatError(
                f"unknown reply status: {self.status!r}"
            ) from None


#: reply status -> wire marker (the first element of a reply pair)
_MARKER_OF = {
    Reply.OK: True,
    Reply.MISS: False,
    Reply.OVERLOAD: OVERLOAD,
    Reply.FENCED: FENCED,
    Reply.EXPIRED: EXPIRED,
    Reply.FAILED: FAILED,
}

#: string wire marker -> reply status (the bool markers are matched by
#: identity, so ``1`` never decodes as OK)
_STATUS_OF = {
    OVERLOAD: Reply.OVERLOAD,
    FENCED: Reply.FENCED,
    EXPIRED: Reply.EXPIRED,
    FAILED: Reply.FAILED,
}


def decode_reply(raw: Any) -> Reply:
    """Decode one (item) reply pair into a :class:`Reply`; anything
    else raises :class:`WireFormatError`."""
    if not isinstance(raw, tuple) or len(raw) != 2:
        raise WireFormatError(f"unparseable reply: {raw!r}")
    head, value = raw
    if head is True:
        return Reply(Reply.OK, value)
    if head is False:
        return Reply(Reply.MISS, value)
    status = _STATUS_OF.get(head) if isinstance(head, str) else None
    if status is None:
        raise WireFormatError(f"unknown reply marker: {head!r}")
    return Reply(status, value)


def encode_batch_reply(replies: list[Reply]) -> tuple:
    """The wire form of a batched reply: per-item replies, request
    order."""
    return (BATCH, tuple(reply.encode() for reply in replies))


def decode_batch_reply(raw: Any) -> list[Reply] | None:
    """Decode a batched reply; ``None`` when ``raw`` is not one (an
    envelope-level shed or fence — the caller falls back per item)."""
    if (
        not isinstance(raw, tuple)
        or len(raw) != 2
        or raw[0] != BATCH
        or not isinstance(raw[1], tuple)
    ):
        return None
    return [decode_reply(item) for item in raw[1]]
