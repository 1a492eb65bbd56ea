"""Registry/docs/CLI contract sync.

The engine roster lives in exactly one authoritative place —
`register_builtin_engines` in src/sim/engines.cpp — and the kusd flags in
one more, the `kFlags` table of tools/kusd_cli.cpp (whose usage text is
generated from the table and the registry). Both are *described* in the
docs: the engine catalog table in docs/architecture.md, and the
`--engine`/`--graph` rows and per-subcommand flag tables of
docs/sweep.md. Nothing at compile time ties those together, so a new
engine or flag silently rots the docs. This pass re-parses the C++
(comment-stripped, string literals kept) and diffs it against each prose
surface, plus the sweep CSV schema against the header list in
Sweep::csv_header().

Codes:
  missing-doc-row      registered engine absent from the architecture.md
                       engine catalog table
  ghost-doc-row        catalog row for an engine that is not registered
  doc-desc-drift       catalog description differs from the registered
                       .description string
  doc-flag-drift       catalog flag cell disagrees with the registered
                       EngineInfo flag
  missing-doc-section  architecture.md has no "## Engine catalog" table
  sweep-doc-drift      docs/sweep.md --engine/--graph rows miss a
                       registered (graph-axis) engine name
  schema-drift         docs/sweep.md CSV schema block differs from
                       Sweep::csv_header()
  flag-doc-drift       a flag a subcommand accepts has no `--flag` row
                       in that subcommand's docs/sweep.md table, a row
                       names a flag none of its subcommands accepts, or
                       a row's default differs from the flag table
"""

import re

from kusdlint import base, cpplex

ADD_CALL = re.compile(r"registry\s*\.\s*add\s*\(")
STRING = re.compile(r'"((?:[^"\\]|\\.)*)"')
DESCRIPTION = re.compile(
    r'\.description\s*=\s*((?:"(?:[^"\\]|\\.)*"\s*)+)')
FLAG = re.compile(
    r"\.(requires_decided_start|uses_graph_axis|uses_chunk_options|"
    r"aggregated_topology)\s*=\s*(true|false)")
FLAGS = ("requires_decided_start", "uses_graph_axis",
         "uses_chunk_options", "aggregated_topology")

# Catalog column header -> EngineInfo flag it mirrors.
CATALOG_FLAG_COLUMNS = {
    "graph axis": "uses_graph_axis",
    "chunked": "uses_chunk_options",
    "decided start": "requires_decided_start",
    "aggregated": "aggregated_topology",
}

# The CLI flag table: the subcommand names, then one {...} row per flag
# opening with its name and its {...} of per-subcommand defaults (a string
# literal, or kNo when the subcommand does not accept the flag).
COMMAND_NAMES = re.compile(r"\bkCommandNames\s*=\s*\{")
FLAG_TABLE = re.compile(r"\bkFlags\s*\[\s*\]\s*=\s*\{")
ROW_DEFAULTS = re.compile(r"\{([^{}]*)\}")
FLAG_ROW = re.compile(r"`--([\w-]+)`")
# A documented default: "100000 (`exact`: 12)" is 100000, and 12 in exact.
OVERRIDE = re.compile(r"(\w+):\s*([^;]*)")


def span(text: str, start: int, open_ch: str = "(",
         close_ch: str = ")") -> str:
    """Text inside the balanced pair whose opener is at text[start]."""
    depth = 0
    for idx in range(start, len(text)):
        if text[idx] == open_ch:
            depth += 1
        elif text[idx] == close_ch:
            depth -= 1
            if depth == 0:
                return text[start + 1:idx]
    return text[start + 1:]


def parse_registrations(text: str) -> list[dict]:
    """Engine registrations from comment-stripped engines.cpp text.

    Each is {name, line, description, <flag>: bool...}; the name is the
    first string literal inside the add(...) call, the description the
    concatenation of adjacent literals after `.description =`.
    """
    engines = []
    for match in ADD_CALL.finditer(text):
        call = span(text, match.end() - 1)
        name_match = STRING.search(call)
        if not name_match:
            continue
        entry = {
            "name": name_match.group(1),
            "line": text.count("\n", 0, match.start()) + 1,
            "description": "",
        }
        desc = DESCRIPTION.search(call)
        if desc:
            entry["description"] = "".join(STRING.findall(desc.group(1)))
        for flag in FLAGS:
            entry[flag] = False
        for flag_match in FLAG.finditer(call):
            entry[flag_match.group(1)] = flag_match.group(2) == "true"
        engines.append(entry)
    return engines


def parse_catalog(text: str) -> tuple[dict | None, int]:
    """The "## Engine catalog" table as {name: {line, description,
    <column>: bool}}, plus the section's line number (None, 0 if the
    section or its table is missing)."""
    section = re.search(r"^##\s+Engine catalog\s*$", text, re.MULTILINE)
    if not section:
        return None, 0
    section_line = text.count("\n", 0, section.start()) + 1
    rows = {}
    columns: list[str] = []
    for offset, line in enumerate(
            text[section.end():].splitlines(), start=section_line + 1):
        if line.startswith("## "):
            break
        if not line.lstrip().startswith("|"):
            continue
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if not columns:
            columns = [c.lower() for c in cells]
            continue
        if set(cells[0]) <= {"-", ":", " "}:
            continue  # separator row
        name = cells[0].strip("`")
        row = {"line": offset, "description": ""}
        for header, cell in zip(columns[1:], cells[1:]):
            if header == "description":
                row["description"] = cell
            elif header in CATALOG_FLAG_COLUMNS:
                row[CATALOG_FLAG_COLUMNS[header]] = cell != ""
        rows[name] = row
    return (rows if columns else None), section_line


def mentions(name: str, text: str) -> bool:
    """Word-boundary mention ('graph' must not match 'graph-batched')."""
    return re.search(r"(?<![\w-])" + re.escape(name) + r"(?![\w-])",
                     text) is not None


@base.register
class ContractSyncPass(base.Pass):
    name = "contract-sync"
    description = ("sim::Registry registrations and the CLI flag table vs "
                   "the architecture.md engine catalog and sweep.md")

    # Overridable so self-tests can point at a fixture tree.
    engines_file = "src/sim/engines.cpp"
    architecture_file = "docs/architecture.md"
    sweep_doc = "docs/sweep.md"
    sweep_source = "src/runner/sweep.cpp"
    cli_file = "tools/kusd_cli.cpp"

    def __init__(self):
        self.checked = 0

    def run(self, ctx):
        for rel in (self.engines_file, self.architecture_file,
                    self.sweep_doc, self.sweep_source, self.cli_file):
            if not (ctx.root / rel).is_file():
                raise base.UsageError(f"contract-sync: {rel} not found "
                                      f"under {ctx.root}")
        findings = []
        engines = parse_registrations(
            cpplex.strip_comments(ctx.read(self.engines_file)))
        self.checked = len(engines)
        if not engines:
            raise base.UsageError(
                f"contract-sync: no registry.add() calls parsed from "
                f"{self.engines_file}")
        by_name = {e["name"]: e for e in engines}

        findings += self.check_catalog(ctx, by_name)
        findings += self.check_sweep_doc(ctx, by_name)
        findings += self.check_schema(ctx)
        findings += self.check_sweep_flags(ctx)
        return findings

    def check_catalog(self, ctx, by_name):
        findings = []
        catalog, section_line = parse_catalog(
            ctx.read(self.architecture_file))
        if catalog is None:
            return [base.Finding(
                file=self.architecture_file, line=0,
                code="missing-doc-section",
                message="no '## Engine catalog' table — every registered "
                        "engine must be documented there")]
        for name, engine in sorted(by_name.items()):
            row = catalog.get(name)
            if row is None:
                findings.append(base.Finding(
                    file=self.architecture_file, line=section_line,
                    code="missing-doc-row",
                    message=f"engine '{name}' is registered in "
                            f"{self.engines_file} but has no engine "
                            f"catalog row"))
                continue
            if row["description"] != engine["description"]:
                findings.append(base.Finding(
                    file=self.architecture_file, line=row["line"],
                    code="doc-desc-drift",
                    message=f"engine '{name}': catalog says "
                            f"'{row['description']}' but the registration "
                            f"says '{engine['description']}'"))
            for flag in FLAGS:
                if flag in row and row[flag] != engine[flag]:
                    findings.append(base.Finding(
                        file=self.architecture_file, line=row["line"],
                        code="doc-flag-drift",
                        message=f"engine '{name}': catalog marks {flag}="
                                f"{row[flag]} but the registration says "
                                f"{engine[flag]}"))
        for name, row in sorted(catalog.items()):
            if name not in by_name:
                findings.append(base.Finding(
                    file=self.architecture_file, line=row["line"],
                    code="ghost-doc-row",
                    message=f"catalog row for '{name}' but no such engine "
                            f"is registered"))
        return findings

    def check_sweep_doc(self, ctx, by_name):
        findings = []
        lines = ctx.read(self.sweep_doc).splitlines()
        for lineno, line in enumerate(lines, start=1):
            for flag, wanted in (("engine", lambda e: True),
                                 ("graph", lambda e: e["uses_graph_axis"])):
                if not re.match(rf"\s*\|\s*`--{flag}`", line):
                    continue
                for name in sorted(by_name):
                    if wanted(by_name[name]) and not mentions(name, line):
                        findings.append(base.Finding(
                            file=self.sweep_doc, line=lineno,
                            code="sweep-doc-drift",
                            message=f"--{flag} row does not mention "
                                    f"registered engine '{name}'"))
        return findings

    def parse_flag_table(self, ctx):
        """({flag: {subcommand: default}}, subcommand names) from kFlags.

        A subcommand that does not accept the flag is absent from its
        map; "" is a flag without a default.
        """
        source = cpplex.strip_comments(ctx.read(self.cli_file))
        names = COMMAND_NAMES.search(source)
        table = FLAG_TABLE.search(source)
        if not names or not table:
            raise base.UsageError(
                f"contract-sync: no kCommandNames / kFlags[] flag table "
                f"parsed from {self.cli_file}")
        commands = STRING.findall(span(source, names.end() - 1, "{", "}"))
        body = span(source, table.end() - 1, "{", "}")
        flags = {}
        start = body.find("{")
        while start != -1:
            row = span(body, start, "{", "}")
            items = ROW_DEFAULTS.search(row).group(1).split(",")
            flags[STRING.search(row).group(1)] = {
                command: item.strip().strip('"')
                for command, item in zip(commands, items)
                if STRING.fullmatch(item.strip())}
            start = body.find("{", start + len(row) + 2)
        return flags, commands

    def check_sweep_flags(self, ctx):
        """docs/sweep.md flag tables vs the CLI flag table.

        A table belongs to the subcommands its nearest heading names. Each
        flag a subcommand accepts needs a `--flag` row in one of that
        subcommand's tables, each row must name a flag one of them
        accepts, and the row's Default cell — "100000 (`exact`: 12)" for
        defaults that differ, "—" for none — must match the table.
        """
        flags, commands = self.parse_flag_table(ctx)
        documented = set()
        findings = []

        def drift(line, message):
            findings.append(base.Finding(file=self.sweep_doc, line=line,
                                         code="flag-doc-drift",
                                         message=message))

        section, columns, fenced = [], [], False
        lines = ctx.read(self.sweep_doc).splitlines()
        for lineno, line in enumerate(lines, start=1):
            fenced ^= line.startswith("```")
            if line.startswith("#") and not fenced:
                section = [c for c in commands if mentions(c, line)]
                continue
            if not line.lstrip().startswith("|"):
                columns = []
                continue
            cells = [c.strip() for c in line.strip().strip("|").split("|")]
            if not columns:
                columns = [c.lower() for c in cells]
                continue
            row = FLAG_ROW.fullmatch(cells[0])
            if not row:
                continue
            flag = row.group(1)
            accepted = [c for c in section if c in flags.get(flag, {})]
            if not accepted:
                drift(lineno, f"option row documents '--{flag}' but no "
                              f"kusd subcommand of its section "
                              f"({', '.join(section) or 'none'}) accepts it")
                continue
            documented.update((c, flag) for c in accepted)
            if "default" not in columns:
                continue
            cell = cells[columns.index("default")].replace("`", "")
            first, _, rest = cell.partition(" (")
            overrides = dict(OVERRIDE.findall(rest.rstrip(")")))
            for command in accepted:
                said = overrides.get(command, first).strip()
                want = flags[flag][command] or "—"
                if said != want:
                    drift(lineno, f"--{flag} default in {command}: the "
                                  f"docs say '{said}' but the flag table "
                                  f"says '{want}'")
        for flag, defaults in sorted(flags.items()):
            for command in defaults:
                if (command, flag) not in documented:
                    drift(0, f"{command} flag '--{flag}' is accepted by "
                             f"{self.cli_file} but has no option row in "
                             f"{self.sweep_doc}")
        return findings

    def check_schema(self, ctx):
        source = cpplex.strip_comments(ctx.read(self.sweep_source))
        header_match = re.search(r"csv_header\s*\(\s*\)\s*\{", source)
        if not header_match:
            return [base.Finding(
                file=self.sweep_source, line=0, code="schema-drift",
                message="could not locate Sweep::csv_header()")]
        body = source[header_match.end():
                      source.index(";", header_match.end())]
        columns = STRING.findall(body)

        doc = ctx.read(self.sweep_doc)
        anchor = re.search(r"CSV header = JSONL keys:", doc)
        if not anchor:
            return [base.Finding(
                file=self.sweep_doc, line=0, code="schema-drift",
                message="no 'CSV header = JSONL keys:' schema block")]
        anchor_line = doc.count("\n", 0, anchor.start()) + 1
        fence = re.search(r"```\n(.*?)```", doc[anchor.end():], re.DOTALL)
        if not fence:
            return [base.Finding(
                file=self.sweep_doc, line=anchor_line, code="schema-drift",
                message="no fenced schema block after 'CSV header = "
                        "JSONL keys:'")]
        documented = [c.strip() for c in
                      fence.group(1).replace("\n", "").split(",")
                      if c.strip()]
        if documented != columns:
            return [base.Finding(
                file=self.sweep_doc, line=anchor_line, code="schema-drift",
                message=f"documented schema {documented} != "
                        f"Sweep::csv_header() {columns}")]
        return []
