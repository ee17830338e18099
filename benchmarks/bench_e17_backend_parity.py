"""E17 shim — the experiment lives in ``repro.bench.experiments``.

CLI equivalent: ``python -m repro.bench --suite full --filter e17``.
The case itself runs the paper pipeline on the local, sharded and
process backends and differential-checks them, so it ignores
``BENCH_BACKEND``; set ``BENCH_WORKERS=N`` to sweep process pools of
``{1, N}`` workers instead of the tier default.
"""


def test_e17_backend_parity(bench_case):
    bench_case("e17_backend_parity")
