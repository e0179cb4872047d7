"""An in-thread service daemon for tests that drive one end to end."""

import contextlib
import threading
import time

from repro.service import (
    ProtocolError,
    ServiceClient,
    ServiceDaemon,
    ServiceError,
)


@contextlib.contextmanager
def running_daemon(tmp_path, jobs=1):
    """Serve a :class:`ServiceDaemon` on ``tmp_path/svc.sock`` with its
    store at ``tmp_path/store``; yields ``(client, daemon)`` and shuts
    the daemon down on exit."""
    socket_path = str(tmp_path / "svc.sock")
    instance = ServiceDaemon(
        socket_path,
        str(tmp_path / "store"),
        jobs=jobs,
        emit=lambda line: None,
    )
    thread = threading.Thread(target=instance.serve_forever, daemon=True)
    thread.start()
    client = ServiceClient(socket_path, timeout=10.0)
    deadline = time.monotonic() + 10.0
    while True:
        try:
            client.ping()
            break
        except (ServiceError, ProtocolError):
            if time.monotonic() > deadline:
                raise
            time.sleep(0.02)
    try:
        yield client, instance
    finally:
        try:
            client.shutdown()
        except (ServiceError, ProtocolError):
            pass
        thread.join(timeout=10.0)
