"""E19 shim — the experiment lives in ``repro.bench.experiments``.

CLI equivalent: ``python -m repro.bench --suite full --filter e19``.
The case itself always exercises the ``ProcessBackend``, so it ignores
``BENCH_BACKEND``; set ``BENCH_WORKERS=N`` to resize the pool
(default 2).
"""


def test_e19_arena_overhead(bench_case):
    bench_case("e19_arena_overhead")
