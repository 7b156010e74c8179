"""The benchmark's tracer patches library functions by name; keep those names alive."""

import importlib.util
from pathlib import Path

JOB = Path(__file__).resolve().parents[1] / "perfbench" / "job.py"


def test_trace_points_exist():
    spec = importlib.util.spec_from_file_location("perfbench_job", JOB)
    job = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(job)
    assert job.TRACE_POINTS
    for owner, attr, name in job.TRACE_POINTS:
        assert attr in owner.__dict__, (owner, attr, name)
