"""End-to-end and per-layer benchmark of the time-warping database.

Run one workload with ``python3 perfbench/run.py --workload <name>
--seed <n> --seconds <s> --trace <0|1>`` from the repository root; the
last line of standard output is the JSON result.  The modules here
share no code with ``src/``: inputs (:mod:`perfbench.inputs`), the
answer oracle (:mod:`perfbench.oracle`) and the span recorder
(:mod:`perfbench.spans`) are the benchmark's own.
"""
