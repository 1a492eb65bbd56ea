"""RNG stream discipline in src/ (provenance, not just hazard classes).

The determinism pass bans the stdlib engines outright; this pass goes
one level deeper and checks *provenance*: randomness in the library must
flow from `rng::stream_seed(master_seed, stream_id)` into an `rng::Rng`,
because that is the only construction whose streams are independent by
the Philox argument (see src/rng/rng.hpp). Every check but
raw-intrinsics is scoped outside src/rng/ — the substrate itself is
where the primitives legitimately live.

Codes:
  std-distribution   std::*_distribution constructed outside src/rng/ —
                     distribution sampling must go through rng::Rng's
                     samplers (cross-platform stream stability)
  raw-seed           an rng::Rng constructed (or reseeded) from an
                     integer literal, or stream_seed() called with a
                     literal master seed — library code must thread the
                     caller's seed, never pin one
  rng-copy-in-loop   `Rng x = y;` inside a loop body — each iteration
                     forks the *same* stream state, so "independent"
                     draws are perfectly correlated across iterations;
                     derive a per-iteration stream with stream_seed
                     instead
  raw-intrinsics     x86 vector intrinsics (`_mm*_...`, `__m128/256/512`,
                     `<*intrin.h>`) anywhere in src/, src/rng/ included —
                     the library is portable scalar C++, and hand-rolled
                     intrinsics would fork results (or the build) by
                     instruction set
"""

import re

from kusdlint import base

STD_DISTRIBUTION = re.compile(
    r"std\s*::\s*\w+_distribution")
INT_LITERAL = r"(?:0[xX][0-9a-fA-F']+|\d[\d']*)(?:[uUlL]{0,4})"
RAW_SEED_CTOR = re.compile(
    r"\bRng\s+\w+\s*(?:\(|\{)\s*" + INT_LITERAL + r"\s*(?:\)|\})")
RAW_SEED_TEMP = re.compile(r"\bRng\s*(?:\(|\{)\s*" + INT_LITERAL +
                           r"\s*(?:\)|\})")
RAW_RESEED = re.compile(r"\breseed\s*\(\s*" + INT_LITERAL + r"\s*\)")
RAW_STREAM_SEED = re.compile(r"\bstream_seed\s*\(\s*" + INT_LITERAL +
                             r"\s*[,)]")
# Copy-initialization of an Rng from a plain identifier. Rng's uint64
# constructor is `explicit`, so `Rng x = some_identifier;` can only be a
# copy (or move) of another Rng — never a seed conversion — which makes
# this form sound to flag without type information.
RNG_COPY = re.compile(r"\b(?:rng\s*::\s*)?Rng\s+\w+\s*=\s*\w+\s*;")
LOOP_HEADER = re.compile(r"\b(for|while)\s*\(")
RAW_INTRINSIC = re.compile(
    r"\b_mm\d*_\w+\s*\(|\b__m(?:128|256|512)[id]?\b|"
    r"#\s*include\s*<\w*intrin\.h>")


def loop_depth_by_line(stripped: str) -> list[int]:
    """For each line (0-based), how many enclosing loop bodies it is in.

    A lightweight brace tracker over comment/string-stripped text: a
    `for(`/`while(` arms the next `{` to open a loop scope. do-while
    bodies count via the `do {` keyword too.
    """
    depths = []
    stack = []  # True where the scope is a loop body
    pending_loop = False
    for line in stripped.splitlines():
        depths.append(sum(stack))
        if re.search(r"\bdo\s*\{", line):
            pending_loop = True
        if LOOP_HEADER.search(line):
            pending_loop = True
        for ch in line:
            if ch == "{":
                stack.append(pending_loop)
                pending_loop = False
            elif ch == "}" and stack:
                stack.pop()
        # Re-evaluate the depth the *next* line starts at; the recorded
        # value above is the depth at the line's start, which is the
        # conservative choice for single-line `for (...) stmt;` bodies.
    return depths


@base.register
class RngDisciplinePass(base.Pass):
    name = "rng-discipline"
    description = ("randomness provenance outside src/rng/: stream_seed "
                   "flow, no literal seeds, no Rng copies in loops; no "
                   "raw vector intrinsics anywhere in src/")

    def __init__(self):
        self.checked = 0

    def run(self, ctx):
        findings = []
        files = ctx.cpp_files("src")
        self.checked = len(files)
        for rel in files:
            stripped = ctx.read_stripped(rel)
            lines = stripped.splitlines()
            substrate = rel.startswith("src/rng/")
            depths = loop_depth_by_line(stripped)
            for idx, line in enumerate(lines):
                lineno = idx + 1
                if RAW_INTRINSIC.search(line):
                    findings.append(base.Finding(
                        file=rel, line=lineno, code="raw-intrinsics",
                        message="raw vector intrinsics in src/ — the "
                                "library is portable scalar C++, so "
                                "results never depend on the instruction "
                                "set"))
                if substrate:
                    continue
                if STD_DISTRIBUTION.search(line):
                    findings.append(base.Finding(
                        file=rel, line=lineno, code="std-distribution",
                        message="std::*_distribution outside src/rng/ — "
                                "sample through rng::Rng so the stream is "
                                "platform-stable"))
                if (RAW_SEED_CTOR.search(line) or RAW_RESEED.search(line)
                        or RAW_SEED_TEMP.search(line)):
                    findings.append(base.Finding(
                        file=rel, line=lineno, code="raw-seed",
                        message="rng::Rng seeded from an integer literal — "
                                "library code must thread the caller's "
                                "seed through rng::stream_seed"))
                elif RAW_STREAM_SEED.search(line):
                    findings.append(base.Finding(
                        file=rel, line=lineno, code="raw-seed",
                        message="stream_seed() with a literal master seed "
                                "pins the stream — the master seed must "
                                "come from the caller"))
                if RNG_COPY.search(line) and depths[idx] > 0:
                    findings.append(base.Finding(
                        file=rel, line=lineno, code="rng-copy-in-loop",
                        message="copying an Rng inside a loop body replays "
                                "the same stream every iteration — derive "
                                "a per-iteration stream via "
                                "rng::stream_seed"))
        return findings
