"""Call census: the functions defined in src/tentstab/*.py that no run
below calls, each with its line count.

Under one sys.setprofile hook (threading.setprofile too), it runs:
- the commands of CI's console-script step (.github/workflows/tier1.yml),
  in process through tentstab.cli.main, in a temporary directory;
- the three benchmark workloads' job lists at seeds 1-3, each workload
  after its warm-up jobs, then one pass of seed 1 under perfbench's Tracer;
- tests/test_acceptance.py and tests/test_golden.py under pytest.

It exits 1 if a function that no run calls is missing from KNOWN.

Usage: python3 tools/call_census.py [REPO_ROOT]   (default: this checkout;
about a minute on a 2-core machine)
"""

import ast
import contextlib
import glob
import io
import os
import sys
import tempfile
import threading

ROOT = os.path.abspath(sys.argv[1] if len(sys.argv) > 1 else os.path.join(os.path.dirname(__file__), ".."))
SRC = os.path.join(ROOT, "src", "tentstab")

# The functions no run calls, on purpose: the benchmark's tracer binds the
# first three until its harness is retargeted (ROADMAP item 6a), and the
# dunders make ConvexPolygon an immutable, hashable value with a repr.
KNOWN = {
    "density.project_to_grid",
    "geom2d.inradius",
    "geom2d.monomial_integral",
    "geom2d.ConvexPolygon.__eq__",
    "geom2d.ConvexPolygon.__hash__",
    "geom2d.ConvexPolygon.__repr__",
    "geom2d.ConvexPolygon.__setattr__",
}

CI_COMMANDS = """\
verify --t 0.9 --power 3 --out cert.json
verify --t 0.95 --power 8 --out cert8.json
oracle1d --cells 16 --matrix-out om.csv --out o.csv
oracle1d --a 1.0000001 --cells 1000 --out o1000a.csv
oracle1d --a 2 --cells 1000 --out o1000b.csv
density --t 0.95 --resolution 16 --out d.csv
density --t 0.95 --resolution 16 --format svg --out d.svg
density --t 1.0 --resolution 64 --matrix-out m.csv --out d1.csv
density --t 0.9999999987175887 --power 2 --resolution 24 --matrix-out m24.csv --out d24.csv
density --t 0.9999999987175887 --power 4 --resolution 41 --matrix-out m41.csv --out d41.csv
density --t 0.9393716769023954 --resolution 128 --matrix-out m128.csv
density --t 0.95 --power 8 --resolution 32 --matrix-out m8.csv
density --t 0.939 --resolution 128 --out d128.csv
sweep --tmin 0.95 --tmax 0.99 --steps 2 --resolution 16 --out s.csv
orbit --t 1.0 --n 200000 --seed 2 --out orb.csv
orbit --t 0.9 --n 200000 --seed 3 --out orb09.csv
orbit --t 0.8814119281102443 --n 200003 --seed 5 --out orbmin.csv
lycheck --t 0.9 --power 3 --jmax 3 --f0 lefthalf --out ly.csv
lycheck --t 0.99 --power 3 --jmax 5 --f0 uniform --out ly5.csv
lycheck --t 0.999999 --power 3 --jmax 5 --f0 lefthalf --out ly5near1.csv
verify --t abc --out rejected.out
verify --t 0.5 --out rejected.out
density --t 0.7 --resolution 16 --out rejected.out
orbit --t 0.5 --out rejected.out
--help""".splitlines()


def run_all() -> set:
    """(file name, first line) of every src/tentstab function called."""
    called = set()

    def hook(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(SRC):
            called.add((os.path.basename(frame.f_code.co_filename), frame.f_code.co_firstlineno))

    sys.path[:0] = [os.path.join(ROOT, d) for d in ("src", "perfbench", "tests")]
    sys.setprofile(hook)
    threading.setprofile(hook)
    try:
        import bench_jobs
        import pytest
        from bench_trace import Tracer
        from tentstab import cli

        here = os.getcwd()
        with tempfile.TemporaryDirectory() as scratch:
            os.chdir(scratch)
            for line in CI_COMMANDS:
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                    try:
                        cli.main(line.split())
                    except SystemExit:  # --help
                        pass
            for workload in bench_jobs.WORKLOADS:
                jobs = bench_jobs.warmup_jobs(workload)
                jobs += [job for seed in (1, 2, 3) for job in bench_jobs.make_jobs(workload, seed)]
                for job in jobs:
                    bench_jobs.run_job(job, scratch)
                tracer = Tracer()
                tracer.install()
                try:
                    for job in bench_jobs.make_jobs(workload, 1):
                        bench_jobs.run_job(job, scratch)
                finally:
                    tracer.uninstall()
            os.chdir(here)
        tests = [os.path.join(ROOT, "tests", name) for name in ("test_acceptance.py", "test_golden.py")]
        with contextlib.redirect_stdout(io.StringIO()):
            code = pytest.main(["-q", "-p", "no:cacheprovider", *tests])
        if code != 0:
            raise SystemExit(f"the acceptance and golden tests failed (pytest exit {code})")
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    return called


def defined():
    """(file name, first line, dotted name, line count) of every function
    and method defined in src/tentstab/*.py, nested ones included."""
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        base = os.path.basename(path)
        stack = [(ast.parse(open(path).read()), base[:-3] + ".")]
        while stack:
            node, prefix = stack.pop()
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.FunctionDef):
                    # a code object's first line is its first decorator's
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    yield base, first, prefix + child.name, child.end_lineno - child.lineno + 1
                    stack.append((child, prefix + child.name + "."))
                elif isinstance(child, ast.ClassDef):
                    stack.append((child, prefix + child.name + "."))


def main() -> None:
    called = run_all()
    never = sorted((name, base, first, n) for base, first, name, n in defined() if (base, first) not in called)
    for name, base, first, n in never:
        print(f"{name} ({base}:{first}, {n} lines)")
    print(f"{len(never)} functions, {sum(n for *_, n in never)} lines never called")
    unknown = [name for name, *_ in never if name not in KNOWN]
    if unknown:
        raise SystemExit(f"never called and not in KNOWN: {', '.join(unknown)}")


if __name__ == "__main__":
    main()
