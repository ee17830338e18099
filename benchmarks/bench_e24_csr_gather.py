"""E24 shim — the experiment lives in ``repro.bench.experiments``.

CLI equivalent: ``python -m repro.bench --suite full --filter e24``.
The case runs on both the sharded and process backends, so it ignores
``BENCH_BACKEND``; set ``BENCH_WORKERS=N`` to resize the pool
(default 2).
"""


def test_e24_csr_gather(bench_case):
    bench_case("e24_csr_gather")
