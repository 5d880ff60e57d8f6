#!/usr/bin/env python3
"""Check that DESIGN.md's options table lists exactly the option fields.

    tools/check_options_table.py [REPO_ROOT]

Reads the data members of PlatformConfig, MigrationConfig, RestoreOptions
and RestorePolicy from their headers, and the `Struct::field` names in the
first column of the table in DESIGN.md section 6n. Prints one line per field
that has no row, per row whose field no longer exists and per duplicate
row, then exits 1; exits 0 when the two sets match.
"""
import re
import sys
from pathlib import Path

STRUCTS = {
    "PlatformConfig": "src/faas/platform.hpp",
    "MigrationConfig": "src/faas/migration.hpp",
    "RestoreOptions": "src/criu/restore.hpp",
    "RestorePolicy": "src/core/startup.hpp",
}
SECTION = "## 6n."
SKIP = ("static ", "using ", "struct ", "enum ", "friend ", "template")


def struct_fields(text, name):
    """Data members declared at the top level of `struct name { ... };`."""
    start = re.search(r"^struct %s \{$" % re.escape(name), text, re.M)
    if start is None:
        sys.exit("check_options_table: struct %s not found" % name)
    body = re.sub(r"//[^\n]*", "", text[start.end():])
    fields, stmt, depth = [], "", 1
    for ch in body:
        if ch == "{":
            depth += 1
            continue
        if ch == "}":
            depth -= 1
            if depth == 0:
                break
            # A member function body ends its declaration.
            if depth == 1 and "(" in stmt.split("=")[0]:
                stmt = ""
            continue
        if depth > 1:
            continue
        if ch != ";":
            stmt += ch
            continue
        decl = " ".join(stmt.split("=")[0].split())
        stmt = ""
        if not decl or "(" in decl or "operator" in decl:
            continue
        if decl.startswith(SKIP):
            continue
        fields.append(re.search(r"(\w+)$", decl).group(1))
    return fields


def table_rows(design):
    start = design.find("\n" + SECTION)
    if start < 0:
        sys.exit("check_options_table: DESIGN.md has no section %s" % SECTION)
    end = design.find("\n## ", start + 1)
    section = design[start:end if end >= 0 else len(design)]
    return re.findall(r"^\| `(\w+::\w+)` \|", section, re.M)


def main():
    root = Path(sys.argv[1] if len(sys.argv) > 1 else ".")
    declared = []
    for name, header in STRUCTS.items():
        text = (root / header).read_text()
        declared += ["%s::%s" % (name, f) for f in struct_fields(text, name)]
    rows = table_rows((root / "DESIGN.md").read_text())

    errors = ["DESIGN.md §6n has no row for %s" % f
              for f in declared if f not in rows]
    errors += ["DESIGN.md §6n has a row for %s, which no longer exists" % r
               for r in sorted(set(rows) - set(declared))]
    errors += ["DESIGN.md §6n lists %s more than once" % r
               for r in sorted({r for r in rows if rows.count(r) > 1})]
    for e in errors:
        print(e)
    if errors:
        return 1
    print("options table covers all %d fields" % len(declared))
    return 0


if __name__ == "__main__":
    sys.exit(main())
