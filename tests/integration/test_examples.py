"""Every shipped example must run (fast configurations)."""

import os
import runpy
import sys

import pytest

EXAMPLES = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "examples",
)


def run_example(name, argv):
    old_argv = sys.argv
    sys.argv = [name] + argv
    try:
        runpy.run_path(os.path.join(EXAMPLES, name), run_name="__main__")
    finally:
        sys.argv = old_argv


class TestExamples:
    def test_quickstart_single_backend(self):
        run_example("quickstart.py", ["AccCpuSerial"])

    def test_quickstart_gpu(self):
        run_example("quickstart.py", ["AccGpuCudaSim"])

    def test_heat_equation(self):
        run_example("heat_equation.py", ["AccCpuOmp2Blocks", "10"])

    def test_matmul_tiling(self):
        run_example("matmul_tiling.py", ["32"])

    def test_monte_carlo_ase(self):
        run_example("monte_carlo_ase.py", ["AccCpuOmp2Blocks"])

    def test_mixed_backends(self):
        run_example("mixed_backends.py", [])

    def test_multi_gpu_halo(self):
        run_example("multi_gpu_halo.py", ["5"])

    def test_plasma_oscillation(self):
        run_example("plasma_oscillation.py", ["AccCpuSerial"])

    def test_roofline_report(self):
        run_example("roofline_report.py", [])

    def test_serving_client(self):
        run_example("serving_client.py", [])
