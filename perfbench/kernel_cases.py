"""The four kernel cases of ``benchmarks/bench_kernels.py``, timed in isolation.

    python3 perfbench/kernel_cases.py

Each case calls the kernel bound to the active backend (numpy here) once to
warm up, then times three calls and reports the median.  The inputs are the
fixed sizes of the original script, drawn from seed 0.  The last stdout line
is JSON mapping each case's metric name to seconds.
"""

import json
import statistics
import time

import numpy as np

from vdwdim import backend_name, kernels, multipole

REPEATS = 3


def cases():
    rng = np.random.default_rng(0)
    R = 10.0
    pts = rng.uniform(-0.5, 0.5, (200_000, 3))
    pts2 = rng.uniform(-0.5, 0.5, (200_000, 3))
    yield "four_site_batch_200k", kernels.four_site_batch, (R, pts, pts2)

    x = np.linspace(-4, 4, 700)
    yield "four_site_grid_1d_700", kernels.four_site_grid_1d, (R, x, x)

    xi = np.linspace(-4, 4, 40)
    g = np.stack(np.meshgrid(xi, xi, indexing="ij"), axis=-1).reshape(-1, 2)
    cloud = np.zeros((g.shape[0], 3))
    cloud[:, :2] = g
    w = rng.random(cloud.shape[0])
    yield "pair_expectation_1600", kernels.pair_expectation, (R, cloud, w, cloud, w)

    arrays = multipole.series_arrays(multipole.expand_interaction(3, 7))
    yield "series_batch_n7_100k", kernels.series_batch, (
        *arrays, R, pts[:100_000], pts2[:100_000]
    )


def main():
    out = {}
    print(f"{'kernel case':<28} {backend_name():>10}")
    for name, fn, args in cases():
        fn(*args)
        times = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            fn(*args)
            times.append(time.perf_counter() - t0)
        out[f"bench_kernels.{name}_s"] = statistics.median(times)
        print(f"{name:<28} {out[f'bench_kernels.{name}_s'] * 1e3:>8.2f}ms")
    print(json.dumps(out))


if __name__ == "__main__":
    main()
