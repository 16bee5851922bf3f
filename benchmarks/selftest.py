"""Self-test of the output checks: each must pass on the program's real
report and fail on a tampered copy.

    python3 benchmarks/selftest.py

Runs every workload once (about 15 s), then applies each tamper below to a
copy of that workload's report and requires the named check to object.
Exits 1 if any real report fails a check or any tamper goes unnoticed.
"""

from __future__ import annotations

import copy
import json
import sys

from checks import WORKLOADS, SymbolFacts, run_checks
from run import OUT, ROOT, run_child


def _set(path, value):
    def tamper(report):
        node = report
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    return tamper


def _bump_index(report):
    report["equivalence"]["channels"][0]["flat_indices"][-1] += 1


def _swap_channels(report):
    a, b = report["equivalence"]["channels"][:2]
    a["flat_indices"], b["flat_indices"] = b["flat_indices"], a["flat_indices"]


def _duplicate_channel(report):
    chans = report["equivalence"]["channels"]
    chans[-1] = copy.deepcopy(chans[0])


def _index_out_of_range(report):
    chans = report["equivalence"]["channels"]
    chans[-1]["flat_indices"][-1] = sum(len(c["flat_indices"]) for c in chans)


def _edit_entry(key, value):
    def tamper(report):
        report["lattice"]["entries"][-1][key] = value
    return tamper


def _minimal_dim(section, key):
    def tamper(report):
        report[section][key][0]["restricted_selfadjoint_commutant_dim"] = 2
    return tamper


FULL_REPORT_TAMPERS = [
    ("verdict", "exit code 1", None, 1),
    ("verdict", "passed false", _set(("passed",), False), 0),
    ("channels", "one flat index moved", _bump_index, 0),
    ("channels", "two channels' indices swapped", _swap_channels, 0),
    ("channels", "a channel listed twice", _duplicate_channel, 0),
    ("channels", "an index outside 0..d-1", _index_out_of_range, 0),
    ("commutant", "commutant dim one short",
     lambda r: r["commutant"].update(dim=r["commutant"]["dim"] - 1), 0),
    ("commutant", "self-adjoint dim one over",
     lambda r: r["commutant"].update(selfadjoint_dim=r["commutant"]["selfadjoint_dim"] + 1), 0),
    ("commutant", "Lemma-3 audit false", _set(("commutant", "lemma3_structure_ok"), False), 0),
    ("masks", "a mask dropped", lambda r: r["lattice"]["entries"].pop(), 0),
    ("masks", "a mask listed twice",
     lambda r: r["lattice"]["entries"].__setitem__(0, copy.deepcopy(r["lattice"]["entries"][1])), 0),
    ("masks", "a mask dimension wrong", _edit_entry("dim", 1), 0),
    ("masks", "a mask not reducing", _edit_entry("is_reducing", False), 0),
    ("masks", "lattice section missing", lambda r: r.pop("lattice"), 0),
    ("minimality", "lattice channel restricted dim 2",
     _minimal_dim("lattice", "minimal_channels"), 0),
    ("minimality", "minimality channel restricted dim 2",
     _minimal_dim("minimality", "channels"), 0),
    ("minimality", "a channel certificate dropped",
     lambda r: r["minimality"]["channels"].pop(), 0),
]

SYMBOL_TAMPERS = [
    ("verdict", "exit code 1", None, 1),
    ("symbol_commutant", "commutant dim one over",
     lambda r: r["commutant"].update(dim=r["commutant"]["dim"] + 1), 0),
    ("symbol_commutant", "self-adjoint dim 2", _set(("commutant", "selfadjoint_dim"), 2), 0),
    ("symbol_commutant", "commutant section missing", lambda r: r.pop("commutant"), 0),
]


def main() -> int:
    bad = 0
    for w in WORKLOADS.values():
        out_dir = OUT / "selftest" / w.name
        out_dir.mkdir(parents=True, exist_ok=True)
        rec = run_child(w, 0, out_dir, 0)
        if "error" in rec:
            print(f"FAIL {w.name}: {rec['error']}")
            bad += 1
            continue
        report = json.loads(rec["report"])
        facts = SymbolFacts(ROOT, w) if w.symbol is not None else None
        problems = {k: v for k, v in run_checks(report, rec["rc"], w, facts).items() if v}
        print(f"{'FAIL' if problems else 'ok  '} {w.name}: real report {problems or 'passes'}")
        bad += bool(problems)
        for check, what, tamper, rc in (SYMBOL_TAMPERS if w.symbol else FULL_REPORT_TAMPERS):
            tampered = copy.deepcopy(report)
            if tamper is not None:
                tamper(tampered)
            found = run_checks(tampered, rc, w, facts)[check]
            print(f"{'ok  ' if found else 'FAIL'} {w.name}: {check} catches {what}"
                  + (f": {found[0]}" if found else ""))
            bad += not found
    print("self-test", "failed" if bad else "passed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
