"""Typed error surface of the serving layer.

Every failure mode a client can observe has its own class so the front end
can map it to a distinct wire status (HTTP 404/429/504/503) and so tests
can assert the *kind* of failure, not a message substring.  All inherit
:class:`ServeError`, itself a ``RuntimeError``.
"""

from __future__ import annotations

__all__ = [
    "ServeError",
    "ModelNotFound",
    "BadRequest",
    "QueueFull",
    "DeadlineExceeded",
    "ServiceStopped",
]


class ServeError(RuntimeError):
    """Base class for serving-layer failures."""

    #: HTTP status the front end maps this error to.
    http_status = 500


class ModelNotFound(ServeError, KeyError):
    """The named model is not registered."""

    http_status = 404


class BadRequest(ServeError, ValueError):
    """Malformed request payload (shape/dtype/rank mismatch, bad JSON)."""

    http_status = 400


class QueueFull(ServeError):
    """Admission control rejected the request: the bounded queue is full.

    Explicit rejection is the overload contract — a full server answers
    "try again later" immediately instead of hanging or silently dropping.
    """

    http_status = 429


class DeadlineExceeded(ServeError, TimeoutError):
    """The request's deadline passed before a batch could answer it."""

    http_status = 504


class ServiceStopped(ServeError):
    """The scheduler was stopped while the request was pending."""

    http_status = 503
