"""Write eval_reference.json: certified f and fhat on the radius grid that
the ``eval`` workload draws from.

    python3 bench/make_reference.py

Run it only on a commit whose values are trusted; the ``eval`` check then
holds every later commit to these values within the certified errors.
"""

from __future__ import annotations

import json
import sys

import mpmath as mp

import run
import workloads

# r = 0 and the grid 0 < r <= 8 in steps of 1/16, exact in binary
RADII = ["0"] + [repr(j / 16) for j in range(1, 129)]


def main():
    sys.path.insert(0, str(run.SRC))
    pb = run.fresh_package()
    values = {}
    for n in workloads.EVAL_DIMS:
        spec = pb.magic.magic_spec(n)
        table = workloads.evaluate(spec, RADII)
        with mp.workdps(workloads.REFERENCE_DPS):
            values[str(n)] = {
                r: {"f": mp.nstr(f.value, 80), "f_err": mp.nstr(f.error, 8),
                    "fhat": mp.nstr(fh.value, 80),
                    "fhat_err": mp.nstr(fh.error, 8)}
                for r, (f, fh) in table.items()}
    doc = {"generated_by": "bench/make_reference.py",
           "git_commit": run.git_commit(run.ROOT),
           "values": values}
    workloads.REFERENCE_PATH.write_text(json.dumps(doc, indent=1,
                                                   sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
