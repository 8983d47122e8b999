"""Shared fixtures, and the one backend contract that the backend rows check.

Every backend, ``sim``, ``local`` and ``remote``, keeps one contract:

* every request delivered on the input queue yields exactly one message on
  the output queue, carrying the request's msg_id: a likelihood response,
  or a control message with the classified error, ``dataset-not-found``,
  ``non-finite-likelihood`` (NaN or +inf; -inf is a legal zero
  likelihood) or ``worker-crash`` for any other fault, inside the task or
  outside it;
* a fixed-seed chain is byte-identical on every backend;
* a run ends with its chain or with its classified error, which carries
  the completed iterations as ``partial_output``; an answer owed to an
  earlier run is dropped, one within a run that matches no pending
  request raises :class:`~queuemc.errors.DuplicateResponseError`, and no
  msg_id repeats across runs on one queue pair; on the wall clock, a
  timeout raises :class:`~queuemc.errors.MissingResponseError` naming the
  unanswered ids.

A backend row runs on each name of ``BACKENDS`` (the timeout rows on
``WALL_BACKENDS``) through :func:`make_backend`: the per-message cases in
``test_plane.py`` and the chain rows in ``test_engine.py``.
"""

import contextlib
import functools
import threading

import pytest

from queuemc.clocks import VirtualClock, WallClock
from queuemc.fabric import QueueFabric
from queuemc.plane import BackendModel, attach_backend
from queuemc.remote import WorkerServer

BACKENDS = ("sim", "local", "remote")
WALL_BACKENDS = ("local", "remote")
# A backend row's per-iteration response timeout, so that a lost answer
# fails the row instead of stalling it (on sim, in virtual seconds).
TIMEOUT_S = 30.0


def gaussian_target(params, datasets):
    """Standard-normal log density in the first coordinate (flat elsewhere)."""
    return -0.5 * float(params[0]) ** 2


@contextlib.contextmanager
def worker_server(store=None, likelihood_fn=None):
    """An in-process worker server on a free loopback port, serving on a
    daemon thread until the block exits. The server checks for shutdown
    every 50 ms, where the default 0.5 s would add that much to each
    teardown."""
    server = WorkerServer(("127.0.0.1", 0), store, likelihood_fn=likelihood_fn)
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


@pytest.fixture
def fast_model():
    """Backend model with a short modeled likelihood so virtual runs stay small."""
    return BackendModel(likelihood_duration_s=1.0)


@pytest.fixture
def make_backend(fast_model):
    """``build(backend, likelihood_fn=None, store=None, model=None, **kwargs)``
    returns a ready ``(fabric, input_q, output_q, plane)``.

    ``sim`` runs on a virtual clock with ``fast_model`` unless given a
    model, ``local`` and ``remote`` on the wall clock; ``remote`` talks to
    an in-process worker server with the row's store and likelihood_fn.
    Other keywords (``seed``, ``pool_size``) reach :func:`attach_backend`.
    Every plane and server built is closed at teardown, also when the row
    raises.
    """
    with contextlib.ExitStack() as stack:
        def build(backend, likelihood_fn=None, store=None, model=None, **kwargs):
            fabric = QueueFabric(VirtualClock() if backend == "sim" else WallClock())
            input_q = fabric.create_queue("input")
            output_q = fabric.create_queue("output")
            if backend == "remote":
                server = stack.enter_context(worker_server(store, likelihood_fn))
                kwargs["remote_addr"] = server.server_address
            plane = attach_backend(input_q, output_q, backend,
                                   fast_model if model is None else model,
                                   likelihood_fn=likelihood_fn, store=store, **kwargs)
            stack.callback(plane.close)
            return fabric, input_q, output_q, plane

        yield build


@pytest.fixture
def sim_setup(make_backend):
    return functools.partial(make_backend, "sim")


@pytest.fixture
def local_setup(make_backend):
    return functools.partial(make_backend, "local")


@pytest.fixture
def remote_setup(make_backend):
    return functools.partial(make_backend, "remote")
