#!/usr/bin/env python3
"""Doc hygiene: every relative markdown link and referenced repo path in
tracked *.md files must resolve.

Three classes of reference are checked:

1. Markdown links/images `[text](target)` whose target is relative (no
   scheme, not an absolute URL). The target is resolved against the file's
   directory and must exist; `#anchor` suffixes are stripped, pure-anchor
   links are skipped.

2. Backtick-quoted repo paths like `src/session/hub_forwarder.cc` or
   `docs/ARCHITECTURE.md`. Only tokens that are unambiguously meant to be
   repository paths are checked: they must start with a known top-level
   directory (src/, tests/, bench/, docs/, examples/, scripts/, .github/)
   or be a top-level *.md name, and may use `*` globs (e.g.
   `src/video/quality.*` must match at least one file). Build outputs,
   env-var examples, and placeholder templates (`tests/<module>_test.cc`)
   are ignored.

3. Backticked config members like `ConferenceConfig::num_hubs` or
   `HubForwarder::Config::per_path_nack`: for each config struct in
   CONFIG_STRUCTS, the member named after `::` must be declared directly
   in that struct in its header, so a removed or renamed knob cannot live
   on in the docs.

Exit status is nonzero if any reference is broken, printing one
`file:line: message` per problem. Run from anywhere inside the repo.
"""

import glob
import os
import re
import subprocess
import sys

# Task/driver artifacts, not documentation: may cite files that do not
# exist yet (or no longer exist) by design.
SKIP_FILES = {"ISSUE.md", "CHANGES.md"}

LINK_RE = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)\)")
CODE_RE = re.compile(r"`([^`\n]+)`")
# Top-level anchors that make a backticked token a checkable repo path.
PATH_ROOTS = ("src/", "tests/", "bench/", "docs/", "examples/", "scripts/",
              ".github/")
PATH_TOKEN_RE = re.compile(r"^[A-Za-z0-9_.*/-]+$")

# Config structs whose backticked members must exist: qualified name ->
# (header, enclosing class/struct names outermost first).
CONFIG_STRUCTS = {
    "ConferenceConfig": ("src/session/conference.h", ["ConferenceConfig"]),
    "CallConfig": ("src/session/call.h", ["CallConfig"]),
    "HubForwarder::Config": ("src/session/hub_forwarder.h",
                             ["HubForwarder", "Config"]),
    "Sender::Config": ("src/session/sender.h", ["Sender", "Config"]),
    "Pacer::Config": ("src/cc/pacer.h", ["Pacer", "Config"]),
}
CONFIG_MEMBER_RE = re.compile(
    r"(?<![\w:])(" + "|".join(re.escape(k) for k in CONFIG_STRUCTS) +
    r")::([A-Za-z_]\w*)")
IDENT_RE = re.compile(r"[A-Za-z_]\w*")


def repo_root():
    out = subprocess.run(["git", "rev-parse", "--show-toplevel"],
                         capture_output=True, text=True, check=True)
    return out.stdout.strip()


def tracked_markdown(root):
    out = subprocess.run(["git", "ls-files", "*.md"], cwd=root,
                         capture_output=True, text=True, check=True)
    return [line for line in out.stdout.splitlines() if line]


def is_external(target):
    return re.match(r"^[a-z][a-z0-9+.-]*:", target) or target.startswith("//")


def struct_body(text, name):
    """The text between the braces of `struct|class name {`, or None."""
    m = re.search(r"\b(?:struct|class)\s+" + name + r"\b[^;{]*\{", text)
    if not m:
        return None
    depth, start = 1, m.end()
    for i in range(start, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return text[start:i]
    return None


def declared_members(root, header, scopes):
    """Names declared directly in the innermost of `scopes` (None when the
    header or a scope is missing)."""
    try:
        with open(os.path.join(root, header), encoding="utf-8") as f:
            text = f.read()
    except OSError:
        return None
    text = re.sub(r"//[^\n]*", "", text)
    for name in scopes:
        text = struct_body(text, name)
        if text is None:
            return None
    # Keep only the struct's own scope: drop nested bodies and brace
    # initializers.
    flat, depth = [], 0
    for ch in text:
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
        elif depth == 0:
            flat.append(ch)
    names = set()
    for decl in "".join(flat).split(";"):
        # The declared name is the last identifier before the initializer,
        # once template arguments, parameter lists and array bounds go.
        decl = decl.split("=", 1)[0]
        while re.search(r"<[^<>]*>", decl):
            decl = re.sub(r"<[^<>]*>", "", decl)
        decl = re.split(r"[(\[]", decl, maxsplit=1)[0]
        ids = IDENT_RE.findall(decl)
        if ids:
            names.add(ids[-1])
    return names


def check_config_members(root, relpath, lineno, token, members, problems):
    for m in CONFIG_MEMBER_RE.finditer(token):
        struct, member = m.group(1), m.group(2)
        if struct not in members:
            members[struct] = declared_members(root, *CONFIG_STRUCTS[struct])
        declared = members[struct]
        if declared is None:
            problems.append(f"{relpath}:{lineno}: cannot find {struct} in "
                            f"{CONFIG_STRUCTS[struct][0]}")
        elif member not in declared:
            problems.append(f"{relpath}:{lineno}: '{struct}::{member}' is "
                            f"not a member of {struct} "
                            f"({CONFIG_STRUCTS[struct][0]})")


def check_file(root, relpath, problems, members):
    path = os.path.join(root, relpath)
    base = os.path.dirname(path)
    with open(path, encoding="utf-8") as f:
        lines = f.readlines()
    in_fence = False
    for lineno, line in enumerate(lines, 1):
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        for m in LINK_RE.finditer(line):
            target = m.group(1).split("#", 1)[0]
            if not target or is_external(m.group(1)):
                continue
            resolved = os.path.normpath(os.path.join(base, target))
            if not os.path.exists(resolved):
                problems.append(f"{relpath}:{lineno}: broken link "
                                f"'{m.group(1)}' -> {resolved}")
        for m in CODE_RE.finditer(line):
            token = m.group(1).strip()
            check_config_members(root, relpath, lineno, token, members,
                                 problems)
            if not PATH_TOKEN_RE.match(token):
                continue  # flags, templates, expressions — not a path
            if not (token.startswith(PATH_ROOTS) or
                    (token.endswith(".md") and "/" not in token)):
                continue
            resolved = os.path.join(root, token)
            if "*" in token:
                if not glob.glob(resolved):
                    problems.append(f"{relpath}:{lineno}: path glob "
                                    f"'{token}' matches nothing")
            elif not os.path.exists(resolved):
                # `src/video/encoder` style module references name the
                # .h/.cc pair without an extension; accept them if the
                # stem matches something.
                stem = os.path.basename(token)
                if "." not in stem and glob.glob(resolved + ".*"):
                    continue
                problems.append(f"{relpath}:{lineno}: referenced path "
                                f"'{token}' does not exist")


def main():
    root = repo_root()
    problems = []
    members = {}  # struct -> declared member names, parsed once
    files = [f for f in tracked_markdown(root)
             if os.path.basename(f) not in SKIP_FILES]
    for relpath in files:
        check_file(root, relpath, problems, members)
    for p in problems:
        print(p)
    print(f"checked {len(files)} markdown files: "
          f"{'OK' if not problems else f'{len(problems)} broken references'}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
