"""RPR006 fixture: ``Process(target=...)`` workers, one bad and one clean."""

import multiprocessing

SEEN = {"batches": 0}


def leaky_worker_main(conn):
    SEEN["batches"] += 1  # line 9: mutates a module global
    conn.send_bytes(b"ok")


def clean_worker_main(conn):
    # Builds and mutates only its own locals, replies over the pipe —
    # must NOT fire.
    groups = {}
    groups["replayed"] = True
    conn.send_bytes(repr(groups).encode())


def spawn(conn):
    context = multiprocessing.get_context()
    leaky = context.Process(target=leaky_worker_main, args=(conn,))
    clean = multiprocessing.Process(target=clean_worker_main, args=(conn,))
    return leaky, clean
