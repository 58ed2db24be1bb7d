"""Record the SHA-256 of every certify payload into certify_digests.json.

    python3 bench/record_digests.py

Run only when a change is meant to alter the exact CLI JSON; the certify
workload counts every payload that differs from this record as a failed op.
Keys are "m1,m2,m3"; values list one digest per call in CERTIFY_CALLS order.
"""

import json

import oracle
import worker


def main() -> None:
    recorded = {}
    for m in oracle.CERTIFY_CONFIGS:
        digests = []
        for call in oracle.CERTIFY_CALLS:
            rc, out = worker.Certify.run((m, call, oracle.certify_argv(m, call)))
            fails = oracle.check_certify(m, call, rc, out)
            if fails:
                raise SystemExit(f"{m} {call}: {fails}")
            digests.append(oracle.digest(out.encode()))
        recorded[",".join(map(str, m))] = digests
    with open(worker.DIGESTS, "w") as fh:
        json.dump(recorded, fh, indent=0, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
