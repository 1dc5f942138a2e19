"""The 120-report set of a checkout, and the comparison of two such sets.

The set is ``curvint verify``, ``compute``, ``degree`` and ``foliation``
(JSON) for the five catalog pairs at three grids each (12, 24 and 48
nodes per axis; 32, 64 and 128 for torus2), each at ``--workers`` 1 and
2.  A change that should keep the report bits, or move them by a known
bound, is checked by writing the set at both commits and comparing:

    PYTHONPATH=OLD/src python tests/report_set.py write OLD_SET
    PYTHONPATH=NEW/src python tests/report_set.py write NEW_SET
    python tests/report_set.py compare OLD_SET NEW_SET

``write`` imports the ``curvint`` found on the path (it prints which) and
writes one file per report, plus ``codes.json`` with the exit codes, into
a directory that must not exist yet.  ``compare`` prints the reports that
differ, the number of floats that moved, the largest move in ulps of
``max(1, |value|)``, any other changed value, and every report whose bytes
differ between 1 and 2 workers within either set.  It exits 1 when a
report differs or a set depends on the worker count, 0 otherwise.  The
file name keeps pytest from collecting it.
"""

import json
import math
import re
import sys
from pathlib import Path

PAIRS = [("sphere3", "hopf"), ("ellipsoid3", "hopf"), ("torus2", "theta"),
         ("revs1s2", "theta"), ("tube-t3", "fiber")]
GRIDS = {"torus2": (32, 64, 128)}  # every other surface: (12, 24, 48)
COMMANDS = ("verify", "compute", "degree", "foliation")


def runs():
    """(report file name, argv) of each of the 120 reports."""
    out = []
    for command in COMMANDS:
        for surface, field in PAIRS:
            for nodes in GRIDS.get(surface, (12, 24, 48)):
                for workers in (1, 2):
                    argv = [command, "--surface", surface]
                    if command != "degree":
                        argv += ["--field", field]
                    argv += ["--grid", str(nodes), "--workers", str(workers),
                             "--format", "json"]
                    name = "-".join([command, surface] + ([field] if command != "degree" else [])
                                    + [str(nodes), f"w{workers}"]) + ".json"
                    out.append((name, argv))
    return out


def write(directory):
    import curvint
    from curvint import cli

    print(f"curvint {curvint.__version__} from {Path(curvint.__file__).parent}", file=sys.stderr)
    directory = Path(directory)
    directory.mkdir(parents=True)
    codes = {name: cli.main(argv + ["--out", str(directory / name)]) for name, argv in runs()}
    (directory / "codes.json").write_text(json.dumps(codes, indent=1, sort_keys=True) + "\n")


def _moves(old, new, path="$"):
    """(path, old, new) of every leaf where the two reports differ."""
    if isinstance(old, dict) and isinstance(new, dict) and old.keys() == new.keys():
        return [m for k in old for m in _moves(old[k], new[k], f"{path}.{k}")]
    if isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        return [m for i, (a, b) in enumerate(zip(old, new)) for m in _moves(a, b, f"{path}[{i}]")]
    if type(old) is type(new) and (old == new or old != old and new != new):
        return []
    return [(path, old, new)]


def _ulps(old, new):
    """|new - old| in ulps of max(1, |old|)."""
    return abs(new - old) / math.ulp(max(1.0, abs(old)))


def compare(old_dir, new_dir) -> int:
    old_dir, new_dir = Path(old_dir), Path(new_dir)
    names = [name for name, _ in runs()]
    differ, others, by_key = [], [], {}
    for name in names + ["codes.json"]:
        old, new = (json.loads((d / name).read_text()) for d in (old_dir, new_dir))
        moves = _moves(old, new)
        if moves:
            differ.append(name)
        for path, a, b in moves:
            if isinstance(a, float) and isinstance(b, float):
                key = by_key.setdefault(re.sub(r"\[\d+\]", "[]", path), [0, 0.0, 0.0, None])
                key[0] += 1
                key[2] = max(key[2], abs(b - a))
                if _ulps(a, b) >= key[1]:
                    key[1], key[3] = _ulps(a, b), (name, path, a, b)
            else:
                others.append((name, path, a, b))
    worker_split = [(d.name, name) for d in (old_dir, new_dir) for name in names
                    if name.endswith("-w1.json")
                    and (d / name).read_bytes() != (d / name.replace("-w1.", "-w2.")).read_bytes()]
    floats = sum(count for count, *_ in by_key.values())
    print(f"{len(differ)} of {len(names)} reports differ; {floats} floats moved")
    for name in differ:
        print(f"  differs: {name}")
    for key, (count, ulps, moved, (name, path, a, b)) in sorted(by_key.items()):
        print(f"{key}: {count} moved, largest {ulps:g} ulp of max(1, |value|) "
              f"({name} {path}: {a!r} -> {b!r}), largest absolute move {moved:.3g}")
    if by_key:
        ulps, key = max((v[1], k) for k, v in by_key.items())
        print(f"largest move: {ulps:g} ulp of max(1, |value|), at {key}")
    for name, path, a, b in others:
        print(f"other change: {name} {path}: {a!r} -> {b!r}")
    print(f"{len(worker_split)} reports differ between 1 and 2 workers")
    for where, name in worker_split:
        print(f"  {where}: {name}")
    return 1 if differ or worker_split else 0


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "write":
        write(sys.argv[2])
    elif len(sys.argv) == 4 and sys.argv[1] == "compare":
        sys.exit(compare(sys.argv[2], sys.argv[3]))
    else:
        sys.exit(__doc__)
