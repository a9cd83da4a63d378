"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro.mem.layout import MemoryLayout
from repro.mem.permissions import Permission
from repro.mem.regions import RegionSpec
from repro.sim.environment import ProcessEnv
from repro.sim.kernel import Kernel, SimConfig
from repro.types import ProcessId


def open_region(n_processes: int, region_id: str = "r", prefix=("x",)) -> RegionSpec:
    """A region everybody can read and write (handy for kernel tests)."""
    return RegionSpec(region_id, prefix, Permission.open(range(n_processes)))


def make_kernel(
    n_processes: int = 3,
    n_memories: int = 3,
    regions=None,
    **overrides,
) -> Kernel:
    """A kernel with an open layout unless specific regions are given."""
    if regions is None:
        regions = [open_region(n_processes)]
    config = SimConfig(n_processes=n_processes, n_memories=n_memories, **overrides)
    return Kernel(config, MemoryLayout(list(regions)))


def env_of(kernel: Kernel, pid: int) -> ProcessEnv:
    return ProcessEnv(kernel, ProcessId(pid))


def run_single(kernel: Kernel, pid: int, gen, until: float = 1_000.0):
    """Spawn one task and run the kernel; returns the task (with .result)."""
    task = kernel.spawn(pid, "test-task", gen)
    kernel.run(until=until)
    return task


@pytest.fixture
def kernel():
    return make_kernel()


@pytest.fixture
def env(kernel):
    return env_of(kernel, 0)


def pytest_addoption(parser):
    parser.addoption(
        "--seed-sweep",
        type=int,
        default=0,
        metavar="N",
        help=(
            "rerun the run-digest determinism checks of "
            "test_fault_properties.py / test_read_properties.py across N "
            "seeds in one process (0 = off; the sweep tests skip)"
        ),
    )


@pytest.fixture
def seed_sweep(request) -> int:
    """How many seeds the determinism sweep should cover (0 = disabled)."""
    return int(request.config.getoption("--seed-sweep"))
