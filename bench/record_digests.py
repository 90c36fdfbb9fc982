"""Record the output digest of every input at the default seed.

    python3 bench/record_digests.py

Writes reference_digests.json next to this file. Run it only at a commit
whose outputs are the reference: the benchmark fails any op at the default
seed whose output differs from the digest recorded here.
"""

import json
import sys

import run


def main() -> int:
    run.import_package()
    import workloads

    digests = {}
    with run.workspace() as workdir:
        for name, workload in workloads.WORKLOADS.items():
            count = max(3, workload.chunks_for(run.DEFAULT_SECONDS, False))
            inputs = [inp for index in range(count)
                      for inp in workload.make_chunk(workloads.DEFAULT_SEED, index, workdir)]
            digests[name] = {}
            for inp in inputs:
                checked = workload.check(inp, workload.run(inp))
                if checked.problems:
                    sys.exit(f"{name} input {inp.key}: {checked.problems}")
                digests[name][inp.key] = checked.digest
            print(f"{name}: {len(inputs)} digests", flush=True)
    workloads.REFERENCE_DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
