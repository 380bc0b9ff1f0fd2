"""Time one set-up of a workload in a fresh interpreter and print the seconds.

Set-up is what a seed-run pays before pretraining: ``import nfa``, the config
parse, both ``generate_synthetic`` calls and ``build_cascade``.

    python3 perfbench/setup_probe.py WORKLOAD SEED
"""

import sys
import time

import env
from workloads import WORKLOADS


def main(workload, seed):
    env.isolate()
    config = WORKLOADS[workload].config
    start = time.perf_counter()
    nfa = env.load_nfa()
    harness = nfa.harness
    cfg = nfa.config.config_from_dict(config)
    harness.generate_synthetic(harness.source_data_config(cfg), seed)
    harness.generate_synthetic(cfg.data, seed)
    harness.build_cascade(cfg.cascade, seed)
    print(repr(time.perf_counter() - start))


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))
