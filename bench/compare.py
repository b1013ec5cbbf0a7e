"""``python -m bench compare BASE.json NEW.json``: verdicts per workload x metric.

Samples are the rounds of each results file; round ``r`` of both files used
the same seed, so rounds pair up.  The verdict rule (choosing-metrics guide
sections 6.5 and 8):

* **improved** - NEW reads better in at least nine tenths of the pairs and
  the medians differ by more than BASE's quartile distance and by more than
  the bound.  The last condition is this ledger's addition: rounds of one
  run share a stretch of host speed, so between runs of one commit medians
  move by more than the rounds' own spread (up to ~5 % here), and a gain
  inside the bound is not resolved by one pair of runs;
* **unresolved** - otherwise, when either side's quartile distance, as a
  share of its median, is wider than the metric's bound;
* **regressed** - NEW's median is worse than BASE's by more than the bound;
* **unchanged** - everything else, including identical round values.

``error_rate`` regresses on any rise.  Record digests are compared round by
round, and host fingerprints and calibration times are compared so that a
changed or drifting host is reported instead of blamed on the code.
"""

from __future__ import annotations

import json

from bench.harness import quartiles

__all__ = ["verdict", "compare", "main"]

#: Calibration-kernel change (share) above which the host is said to drift.
HOST_DRIFT = 0.05
_FINGERPRINT = ("cpus", "python", "numpy", "platform", "machine")


def verdict(base: list[float], new: list[float], better: str, bound: float) -> str:
    """Verdict for one metric from paired per-round samples."""
    if base == new:
        return "unchanged"
    b1, bm, b3 = quartiles(base)
    n1, nm, n3 = quartiles(new)
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (nm - bm)
    scale = abs(bm) or 1.0
    wins = sum(1 for b, n in zip(base, new) if sign * (n - b) < 0)
    if wins >= 0.9 * min(len(base), len(new)) and -worse > max(b3 - b1, bound * scale):
        return "improved"
    if max((b3 - b1) / scale, (n3 - n1) / (abs(nm) or 1.0)) > bound:
        return "unresolved"
    if worse / scale > bound:
        return "regressed"
    return "unchanged"


def compare(base: dict, new: dict, spec: dict) -> tuple[list[list[str]], list[str]]:
    """Table rows (one per workload x metric) and warnings."""
    rows: list[list[str]] = []
    warnings: list[str] = []
    for key in _FINGERPRINT:
        if base["host"].get(key) != new["host"].get(key):
            warnings.append(
                f"host mismatch: {key} {base['host'].get(key)} -> {new['host'].get(key)}"
            )
    b_cal, n_cal = base["host"]["calib_ms"], new["host"]["calib_ms"]
    if abs(n_cal - b_cal) > HOST_DRIFT * b_cal:
        warnings.append(
            f"host drift: calibration kernel {b_cal:.2f} ms -> {n_cal:.2f} ms "
            f"({n_cal / b_cal - 1:+.1%}); timing verdicts may reflect the host, not the code"
        )
    for name, b in base["workloads"].items():
        n = new["workloads"].get(name)
        if n is None:
            warnings.append(f"{name}: missing from NEW")
            continue
        for m in spec["end_to_end"]:
            bs, ns = b["metrics"][m["name"]]["rounds"], n["metrics"][m["name"]]["rounds"]
            b1, bm, b3 = quartiles(bs)
            n1, nm, n3 = quartiles(ns)
            rows.append([
                name, m["name"],
                f"{bm:.6g} [{b1:.6g}, {b3:.6g}]",
                f"{nm:.6g} [{n1:.6g}, {n3:.6g}]",
                f"{nm / bm - 1:+.2%}" if bm else "n/a",
                verdict(bs, ns, m["better"], m["bound"]),
            ])
        b_err, n_err = b["diagnostics"]["error_rate"], n["diagnostics"]["error_rate"]
        rows.append([
            name, "error_rate", f"{b_err:.6g}", f"{n_err:.6g}", "",
            "regressed" if n_err > b_err else "improved" if n_err < b_err else "unchanged",
        ])
        if (b["seeds"], b["ops_per_round"]) != (n["seeds"], n["ops_per_round"]):
            warnings.append(f"{name}: digests not comparable (different seeds or op counts)")
        else:
            changed = [i for i, (x, y) in enumerate(zip(b["digests"], n["digests"])) if x != y]
            if changed:
                warnings.append(f"{name}: RECORD DIGESTS CHANGED in rounds {changed}")
    return rows, warnings


def main(base_path: str, new_path: str, spec: dict) -> int:
    """Print the comparison; exit 1 on a regression or a changed digest."""
    with open(base_path, encoding="utf-8") as fh:
        base = json.load(fh)
    with open(new_path, encoding="utf-8") as fh:
        new = json.load(fh)
    rows, warnings = compare(base, new, spec)
    header = ["workload", "metric", "BASE median [q1, q3]", "NEW median [q1, q3]", "change",
              "verdict"]
    widths = [max(len(r[i]) for r in [header, *rows]) for i in range(len(header))]
    for row in [header, *rows]:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    for warning in warnings:
        print(f"warning: {warning}")
    bad = any(r[-1] == "regressed" for r in rows) or any("DIGESTS CHANGED" in w for w in warnings)
    return 1 if bad else 0
