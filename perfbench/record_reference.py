"""Record the reference digests the benchmark gates on.

    python3 perfbench/record_reference.py WORKLOAD N

runs seeds 0 .. N-1 of WORKLOAD and merges their digests into
``reference.json``. Digests recorded under another fingerprint are dropped,
since they cannot be compared with what this machine computes. Record only
at a commit whose reports are known good: the gate then fails every later
commit whose reports differ.
"""

import fcntl
import json
import sys
import tempfile
from pathlib import Path

import env
from workloads import WORKLOADS, seed_run

REFERENCE = Path(__file__).with_name("reference.json")


def main(workload, n):
    env.isolate()
    nfa = env.load_nfa()
    work = env.WORK / "tmp"
    work.mkdir(parents=True, exist_ok=True)
    digests = {}
    for seed in range(n):
        with tempfile.TemporaryDirectory(dir=work) as out:
            digest, _, problems = seed_run(nfa, WORKLOADS[workload], seed, out)
        if problems:
            raise SystemExit(f"seed {seed}: {problems}")
        digests[str(seed)] = digest
        print(seed, digest, flush=True)

    fingerprint = env.fingerprint()
    with open(env.WORK / "reference.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # recorders of several workloads may run at once
        doc = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
        if doc.get("fingerprint") != fingerprint:
            doc = {"fingerprint": fingerprint, "digests": {}}
        doc["digests"].setdefault(workload, {}).update(digests)
        REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))
