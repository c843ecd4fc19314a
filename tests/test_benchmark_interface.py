"""The benchmark in perfbench/ reaches the library through names it looks up
at run time, so a rename breaks it only when it runs. These tests run its
self-test, and its tracer over a fresh import, each in a subprocess, because
``run.import_library`` drops ``stochpoly`` from ``sys.modules``."""
import os
import subprocess
import sys
import textwrap
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def run_in_perfbench(*args):
    # no bytecode files are left under perfbench/
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, *args], cwd=PERFBENCH, env=env, capture_output=True, text=True, timeout=300
    )


def test_benchmark_self_test_passes():
    proc = run_in_perfbench("selftest.py")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.rstrip().endswith("self-test passed")


def test_benchmark_finds_every_name_it_reads():
    # installing the tracer looks up every traced name; the other reads are
    # the polytope fields the oracle workload permutes, the values the
    # per-layer report and the result header read, and the constructor and
    # readers of the value types that the certify-mix requests call
    script = textwrap.dedent(
        """
        import json
        import sys
        import run
        from tracing import Tracer
        if not run.use_checkout_sources():
            sys.exit("no checkout sources")
        mods = run.import_library()
        tracer = Tracer()
        tracer.install(mods)
        tracer.uninstall()
        hp = mods.polytope.build_lp_polytope(3)
        print(len(hp.rows), hp.rank, mods.polytope.build_lp_polytope.cache_info().currsize, mods.pkg.kernel_backend)
        t, n = mods.tensor, 3
        flat = list(t.fractional_vertex_example().flatten())
        point = t.Tensor3([[flat[(i * n + j) * n : (i * n + j + 1) * n] for j in range(n)] for i in range(n)])
        again = t.tensor_from_json(json.loads(json.dumps(t.tensor_to_json(point))))
        matrix = mods.birkhoff.matrix_from_json(json.loads('{"n": 2, "rows": [["1/2", "1/2"], ["1/2", "1/2"]]}'))
        print(again == point == t.fractional_vertex_example(), matrix.n, len(mods.birkhoff.decompose(matrix).terms))
        """
    )
    proc = run_in_perfbench("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[:3] == ["27", "19", "1"]
    assert proc.stdout.split()[4:] == ["True", "2", "2"]
