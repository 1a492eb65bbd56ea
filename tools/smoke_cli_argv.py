#!/usr/bin/env python3
"""Argv robustness of the kusd CLI.

Starts from a small valid invocation of each subcommand and, one flag at
a time, replaces the flag's value with each entry of a fixed hostile
list, drops the flag, repeats it and misspells it. The test passes only
if no output mentions KUSD_CHECK or a sanitizer report, no process dies
by a signal or runs past its time limit, and every exit status is 0, 2
(a usage error), or 1 on a documented I/O or no-consensus path.

  python3 tools/smoke_cli_argv.py /path/to/kusd [workdir]
"""

import re
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HOSTILE = ["", "-1", "0", "nan", "inf", "1e300", "18446744073709551616",
           "1.5", "abc", ",", "er:1e-19", "regular:0", "geometric:0", "0/0",
           "1/0"]

# Exit status 1 is allowed only with one of these outputs: an output file
# that cannot be opened or written, a journal that cannot be read or does
# not match the sweep, or a run that stopped at its time cap.
DOCUMENTED_FAILURE = re.compile(
    r"^error: (cannot open |journal: |resume: |merge: |writing .* failed)"
    r"|^no consensus within the time cap", re.MULTILINE)
DEFECT = re.compile(r"KUSD_CHECK|Sanitizer|runtime error:")
CASE_SECONDS = 10
WORKERS = 3


def bases(journals: Path) -> list[list[str]]:
    """Small valid invocations (n <= 2000, trials <= 2) of every
    subcommand; a dropped --n falls back to the default 100000, so every
    engine here stays fast at that size too."""
    resume = str(journals / "resume.journal")
    merge = str(journals / "merge.journal")
    return [
        ["run", "--n", "2000", "--k", "4", "--seed", "1", "--undecided", "10",
         "--bias", "additive", "--beta", "20"],
        ["run", "--n", "2000", "--k", "3", "--engine", "batched", "--bias",
         "multiplicative", "--alpha", "1.5"],
        ["run", "--n", "1000", "--k", "2", "--engine", "graph-batched",
         "--graph", "regular:8", "--seed", "2"],
        ["sweep", "--n", "500,1000", "--k", "2", "--engine",
         "skip,batched,graph", "--graph", "complete", "--start", "uniform",
         "--trials", "2", "--seed", "3", "--threads", "2", "--budget", "5e4",
         "--chunk", "0.05", "--chunk-policy", "adaptive", "--stripe-width",
         "1", "--shuffle-points", "1", "--ufrac", "0", "--shard", "0/1",
         "--out", "s.csv", "--json", "s.jsonl", "--journal", "s.journal"],
        ["sweep", "--n", "1000", "--k", "3", "--engine", "graph-batched,sync",
         "--graph", "complete,regular:8", "--undecided", "0", "--bias",
         "multiplicative", "--alpha", "2", "--trials", "1", "--budget",
         "1e7"],
        ["sweep", "--n", "1000", "--k", "2", "--engine", "gossip", "--bias",
         "additive", "--beta", "10,20", "--trials", "1"],
        ["sweep", "--n", "500", "--k", "2", "--trials", "1", "--resume",
         resume, "--out", "r.csv"],
        ["merge", "--inputs", merge, "--out", "m.csv", "--json", "m.jsonl"],
        ["trace", "--n", "1000", "--k", "3", "--seed", "4", "--out", "t.csv"],
        ["exact", "--n", "10", "--k", "2", "--support", "4,3"],
    ]


def mutations(base: list[str]):
    """(label, argv) for every hostile value, drop, repeat and misspelling
    of each flag of `base`."""
    for i in range(1, len(base), 2):
        flag, value = base[i], base[i + 1]
        rest = base[:i] + base[i + 2:]
        for hostile in HOSTILE:
            yield (f"{flag} {hostile!r}",
                   base[:i + 1] + [hostile] + base[i + 2:])
        yield f"drop {flag}", rest
        yield f"repeat {flag}", base + [flag, value]
        yield f"misspell {flag}", rest + [flag + "x", value]
        yield f"truncate {flag}", rest + [flag[:-1], value]


def run_case(kusd: str, cwd: Path, argv: list[str], valid: bool) -> str:
    """"" when the invocation behaves, else what went wrong. A `valid`
    invocation must also exit 0."""
    cwd.mkdir(parents=True)
    try:
        proc = subprocess.run([kusd, *argv], cwd=cwd, capture_output=True,
                              text=True, timeout=CASE_SECONDS, check=False)
    except subprocess.TimeoutExpired:
        return f"ran past {CASE_SECONDS} s"
    finally:
        shutil.rmtree(cwd, ignore_errors=True)
    output = proc.stdout + proc.stderr
    if proc.returncode < 0:
        return f"killed by signal {-proc.returncode}"
    if valid and proc.returncode != 0:
        return f"valid invocation exits {proc.returncode}"
    if DEFECT.search(output):
        return "output: " + DEFECT.search(output).group(0)
    if proc.returncode == 1 and DOCUMENTED_FAILURE.search(output):
        return ""
    if proc.returncode in (0, 2):
        return ""
    first = (proc.stderr or proc.stdout).strip().splitlines()[:1]
    return f"exit {proc.returncode}: {first}"


def main() -> int:
    if len(sys.argv) not in (2, 3):
        print(f"usage: {sys.argv[0]} /path/to/kusd [workdir]",
              file=sys.stderr)
        return 2
    kusd = str(Path(sys.argv[1]).resolve())
    parent = Path(sys.argv[2]) if len(sys.argv) == 3 else None
    if parent is not None:
        parent.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=parent) as tmp:
        work = Path(tmp)
        for name in ("resume", "merge"):
            subprocess.run(
                [kusd, "sweep", "--n", "500", "--k", "2", "--trials", "1",
                 "--journal", str(work / f"{name}.journal")],
                cwd=work, capture_output=True, check=True)
        cases = []
        for b, base in enumerate(bases(work)):
            cases.append((f"base {' '.join(base)}", base, True))
            for label, argv in mutations(base):
                cases.append((f"[{base[0]} #{b}] {label}", argv, False))

        def check(index_case):
            index, (label, argv, valid) = index_case
            return label, argv, run_case(kusd, work / f"case{index}", argv,
                                         valid)

        with ThreadPoolExecutor(max_workers=WORKERS) as pool:
            results = list(pool.map(check, enumerate(cases)))
    failures = [(label, argv, problem)
                for label, argv, problem in results if problem]
    for label, argv, problem in failures:
        print(f"FAIL {label}: {problem}\n  kusd {' '.join(argv)}",
              file=sys.stderr)
    print(f"{len(cases) - len(failures)}/{len(cases)} argv cases behave")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
