"""bench_e2e: one end-to-end benchmark of the real-socket Janus cluster.

``python3 -m bench_e2e --workload NAME --seed N --seconds S --trace 0|1``
boots a real :class:`repro.runtime.cluster.LocalCluster`, drives it from
outside through its public HTTP surface, checks the verdicts and prints
one JSON line of metrics (the ``BENCHMARK.json`` contract).  Without
``--workload`` it runs every workload, each in a fresh child process, and
writes ``bench_e2e/out/result.json`` for ``python3 -m bench_e2e.compare``.

See ``bench_e2e/README.md`` for what each workload and metric is for and
for the public surface of ``repro`` this package is allowed to touch.
"""

#: Measured window of a contract run (``run_seconds`` in BENCHMARK.json).
CONTRACT_WINDOW_S = 15.0

#: Least warm-up before the window: connections open, leases granted,
#: initial burst capacity of throttled keys burned.
WARMUP_S = 3.0

#: The window opens this long after ``cluster.start()`` returned (later
#: only if set-up plus ``WARMUP_S`` took longer).  The QoS servers' sync
#: and checkpoint periods are set to this plus half a window, so exactly
#: one maintenance cycle falls in every window, in its middle.
WINDOW_OPENS_S = 5.0

#: Set-ups timed per run (this process plus fresh probe processes);
#: ``setup_s`` is their median.
SETUP_SAMPLES = 5

#: Generator threads / connections.  Never more than the cores we may use.
CLIENTS = 2
