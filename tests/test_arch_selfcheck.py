#!/usr/bin/env python3
"""Self-check for tools/analyze/gpufreq_arch.py, registered with ctest as
`arch_selfcheck` (mirrors tests/test_lint_selfcheck.py). Verifies:

  1. the real tree passes the layering and cycle checks (exit 0); its
     header self-containment is checked by the `selfcontain_<module>`
     ctest entries instead, which build every public header,
  2. each known-bad fixture tree is rejected (exit 1) by exactly the check
     it seeds: layering violation, include cycle, non-self-contained header,
  3. the JSON report is well-formed and carries the violations,
  4. the missing-annotation fixture is rejected by clang -Wthread-safety
     (skipped with a note when clang is not installed — GCC ignores the
     annotations by design), and compiles warning-free once the access is
     guarded (sanity: the fixture fails for the right reason).

Stdlib-only; exits nonzero with a diagnostic on the first broken property.
"""

import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ARCH = os.path.join(ROOT, "tools", "analyze", "gpufreq_arch.py")
FIXTURES = os.path.join(ROOT, "tools", "analyze", "fixtures")

failures = []


def check(name: str, ok: bool, detail: str = "") -> None:
    status = "ok" if ok else "FAIL"
    print(f"[{status}] {name}")
    if not ok:
        if detail:
            print(detail)
        failures.append(name)


def run_arch(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, ARCH, *args],
                          capture_output=True, text=True, cwd=ROOT)


def main() -> int:
    # 1. The real tree must pass the structural checks. Its selfcontain
    #    pass compiles every public header one by one (tens of seconds);
    #    the selfcontain_<module> ctest entries build the same headers with
    #    the full warning set, so this leg leaves them out.
    r = run_arch("--check", "layering,cycles")
    check("real tree passes arch checks", r.returncode == 0,
          f"exit={r.returncode}\n{r.stdout}{r.stderr}")

    # 2a. Layering fixture: both the upward edge (util -> core) and the
    #     non-allowlisted same-layer edge (sim -> nn) must be flagged.
    r = run_arch("--root", os.path.join(FIXTURES, "layering_violation"),
                 "--check", "layering")
    check("layering fixture exits nonzero", r.returncode == 1,
          f"exit={r.returncode}\n{r.stdout}{r.stderr}")
    check("upward edge util->core is flagged", "util -> core" in r.stdout, r.stdout)
    check("same-layer edge sim->nn is flagged", "sim -> nn" in r.stdout, r.stdout)

    # 2b. Cycle fixture.
    r = run_arch("--root", os.path.join(FIXTURES, "include_cycle"),
                 "--check", "cycles")
    check("cycle fixture exits nonzero", r.returncode == 1,
          f"exit={r.returncode}\n{r.stdout}{r.stderr}")
    check("cycle names both headers",
          "cycle_a.hpp" in r.stdout and "cycle_b.hpp" in r.stdout, r.stdout)

    # 2c. Self-containment fixture (needs any C++ compiler).
    if shutil.which(os.environ.get("CXX", "") or "c++") or shutil.which("g++") \
            or shutil.which("clang++"):
        r = run_arch("--root", os.path.join(FIXTURES, "non_self_contained"),
                     "--check", "selfcontain")
        check("non-self-contained fixture exits nonzero", r.returncode == 1,
              f"exit={r.returncode}\n{r.stdout}{r.stderr}")
        check("selfcontain violation names the header",
              "needs_string.hpp" in r.stdout, r.stdout)
    else:
        print("[skip] selfcontain fixture: no C++ compiler on PATH")

    # 3. JSON report: valid JSON, violations present, ok flag false.
    import tempfile
    with tempfile.TemporaryDirectory(prefix="gpufreq_arch_test_") as tmp:
        report_path = os.path.join(tmp, "report.json")
        run_arch("--root", os.path.join(FIXTURES, "layering_violation"),
                 "--check", "layering", "--json", report_path, "--quiet")
        try:
            with open(report_path, encoding="utf-8") as f:
                report = json.load(f)
            check("json report parses", True)
            check("json report carries violations",
                  report.get("ok") is False and len(report.get("violations", [])) == 2,
                  json.dumps(report.get("violations", []), indent=2))
            check("json report lists the declared layers",
                  report.get("layers", {}).get("util") == 0
                  and report.get("layers", {}).get("core") == 2,
                  json.dumps(report.get("layers", {})))
        except (OSError, json.JSONDecodeError) as e:
            check("json report parses", False, str(e))

    # Unknown check names must be a usage error, not silently ignored.
    r = run_arch("--check", "not-a-check")
    check("unknown check name is rejected", r.returncode == 2,
          f"exit={r.returncode}\n{r.stdout}{r.stderr}")

    # 4. Missing-annotation fixture: clang-only (GCC ignores the attributes).
    clang = shutil.which("clang++")
    fixture = os.path.join(FIXTURES, "missing_annotation", "unguarded_counter.cpp")
    if clang:
        cmd = [clang, "-std=c++20", "-fsyntax-only", "-Wthread-safety", "-Werror",
               "-I", os.path.join(ROOT, "src", "util", "include"), fixture]
        r2 = subprocess.run(cmd, capture_output=True, text=True)
        check("clang -Wthread-safety rejects the unguarded access",
              r2.returncode != 0 and "thread-safety" in r2.stderr,
              f"exit={r2.returncode}\n{r2.stderr}")
    else:
        print("[skip] missing-annotation fixture: clang++ not on PATH "
              "(the clang CI job runs this)")

    if failures:
        print(f"\narch self-check: {len(failures)} failure(s)")
        return 1
    print("\narch self-check: all properties hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
