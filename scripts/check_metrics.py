"""Validates the Prometheus text exposition (version 0.0.4) a `metrics` verb
served, from preinferd or (merged) from preinfer-router.

    python3 scripts/check_metrics.py FILE [FILE ...]

Every family has one HELP line, one TYPE line and all its lines in one
contiguous group; every sample follows its family's metadata and has a
non-negative value; OpenMetrics exemplars sit only on bucket lines.
"""

import re
import sys

for path in sys.argv[1:]:
    lines = open(path).read().splitlines()
    assert lines, f"{path}: empty metrics exposition"
    headers = {}
    groups = []
    exemplars = 0
    for line in lines:
        if line.startswith("# "):
            kind, family = line[2:].split(" ", 2)[:2]
            assert kind in ("HELP", "TYPE"), f"{path}: bad comment line: {line}"
            headers[(family, kind)] = headers.get((family, kind), 0) + 1
        else:
            sample, sep, exemplar = line.partition(" # ")
            if sep:
                assert "_bucket{" in sample, f"{path}: exemplar on a non-bucket line: {line}"
                assert re.fullmatch(r'\{trace_id="[0-9a-f]{32}"\} \d+(\.\d+)?', exemplar), \
                    f"{path}: malformed exemplar: {line}"
                exemplars += 1
            series, value = sample.rsplit(" ", 1)
            assert value == "+Inf" or float(value) >= 0, f"{path}: bad sample value: {line}"
            family = series.split("{")[0]
            for suffix in ("_bucket", "_sum", "_count"):
                if (family.removesuffix(suffix), "TYPE") in headers:
                    family = family.removesuffix(suffix)
            assert (family, "TYPE") in headers, f"{path}: sample without HELP/TYPE metadata: {line}"
        if not groups or groups[-1] != family:
            assert family not in groups, f"{path}: family {family} split into several groups"
            groups.append(family)
    for family in groups:
        for kind in ("HELP", "TYPE"):
            n = headers.get((family, kind), 0)
            assert n == 1, f"{path}: family {family} has {n} {kind} lines"
    print(f"metrics smoke ({path}): {len(lines)} exposition lines, {len(groups)} metric "
          f"families, {exemplars} exemplars")
