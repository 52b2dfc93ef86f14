#!/usr/bin/env python3
"""Keep the docs honest: link check + CLI invocation check.

Part of rapidpp (PLDI'17 WCP reproduction).

Three failure modes docs rot into, all caught here and run as a CI job
on every push:

  1. intra-repo markdown links pointing at files that moved or were
     renamed — every relative link target in *.md (repo root and docs/)
     must resolve to an existing file;
  2. quoted `race_cli ...` invocations whose flags no longer parse —
     every invocation found in code blocks or inline code spans is
     re-executed with `--dry-run` appended (race_cli validates the flag
     combination and exits without reading a trace), so a renamed or
     removed flag fails the job the moment a doc still advertises it;
  3. code symbols that were renamed or deleted — every backticked
     `Scope::name` (optionally with `()`) in README.md and docs/*.md must
     name identifiers that all occur in src/ or examples/.

Usage: scripts/check_docs.py [--cli PATH_TO_RACE_CLI] [--root REPO_ROOT]

Without --cli the invocation check is skipped (link check still runs).
"""

import argparse
import pathlib
import re
import shlex
import subprocess
import sys

# [text](target) — excluding images is unnecessary; image targets must
# exist too. Ignores absolute URLs and pure anchors below.
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
# A race_cli command: the binary name — path prefixes like
# `./build/race_cli` count — followed by at least one whitespace-separated
# argument, up to the end of the line / code span. `race_cli_json_parses`
# (ctest names) must not match, hence the \s and the no-word/dash guard.
CMD_RE = re.compile(r"(?<![\w-])race_cli\s+([^`\n]*)")
# A whole inline code span naming a scoped symbol: `Detector::telemetry`,
# `AnalysisSession::progress()`, `StatusCode::InvalidConfig`.
SYMBOL_RE = re.compile(r"[A-Za-z_]\w*(?:::~?[A-Za-z_]\w*)+(?:\(\))?")
IDENT_RE = re.compile(r"[A-Za-z_]\w*")


def doc_files(root: pathlib.Path):
    yield from sorted(root.glob("*.md"))
    yield from sorted((root / "docs").glob("*.md"))


def user_doc_files(root: pathlib.Path):
    """The user-facing docs whose quoted invocations must stay runnable.
    (CHANGES.md and the PR-log files mention historical flags in prose —
    links there are still checked, commands are not.)"""
    readme = root / "README.md"
    if readme.exists():
        yield readme
    yield from sorted((root / "docs").glob("*.md"))


def check_links(root: pathlib.Path) -> list:
    errors = []
    for md in doc_files(root):
        for lineno, line in enumerate(md.read_text().splitlines(), 1):
            for target in LINK_RE.findall(line):
                if target.startswith(("http://", "https://", "mailto:", "#")):
                    continue
                path = target.split("#", 1)[0]
                if not path:
                    continue
                resolved = (md.parent / path).resolve()
                if not resolved.exists():
                    errors.append(
                        f"{md.relative_to(root)}:{lineno}: broken link "
                        f"'{target}' (no such file {path})")
    return errors


def extract_commands(root: pathlib.Path):
    """Yields (file, lineno, argv) for every quoted race_cli invocation."""
    for md in user_doc_files(root):
        in_fence = False
        for lineno, line in enumerate(md.read_text().splitlines(), 1):
            if line.lstrip().startswith("```"):
                in_fence = not in_fence
                continue
            # Outside fences only look inside inline code spans, so prose
            # that merely *names* the tool is not executed.
            regions = [line] if in_fence else re.findall(r"`([^`]*)`", line)
            for region in regions:
                for args in CMD_RE.findall(region):
                    args = args.strip().rstrip(".,;:")
                    if not args:
                        continue
                    try:
                        argv = shlex.split(args)
                    except ValueError as err:
                        yield md, lineno, None, f"unparsable: {err}"
                        continue
                    # Doc lines may show output after a pipe or comment.
                    for cut in ("|", "#", "&&", ">"):
                        if cut in argv:
                            argv = argv[: argv.index(cut)]
                    yield md, lineno, argv, None


def check_symbols(root: pathlib.Path) -> list:
    """Every scoped symbol a user doc quotes must still exist in the code.
    (ROADMAP.md and CHANGES.md name deleted symbols on purpose; they are
    not user docs.)"""
    known = set()
    for top in ("src", "examples"):
        for path in (root / top).rglob("*"):
            if path.suffix in (".h", ".cpp"):
                known.update(IDENT_RE.findall(path.read_text(errors="replace")))
    errors = []
    seen = 0
    for md in user_doc_files(root):
        in_fence = False
        for lineno, line in enumerate(md.read_text().splitlines(), 1):
            if line.lstrip().startswith("```"):
                in_fence = not in_fence
                continue
            if in_fence:
                continue
            for span in re.findall(r"`([^`]*)`", line):
                if not SYMBOL_RE.fullmatch(span.strip()):
                    continue
                seen += 1
                missing = [name for name in IDENT_RE.findall(span)
                           if name not in known]
                if missing:
                    errors.append(
                        f"{md.relative_to(root)}:{lineno}: `{span}` names "
                        f"{', '.join(missing)}, found nowhere in src/ or "
                        f"examples/")
    print(f"checked {seen} scoped symbol(s)")
    return errors


def check_commands(root: pathlib.Path, cli: pathlib.Path) -> list:
    errors = []
    seen = 0
    for md, lineno, argv, err in extract_commands(root):
        where = f"{md.relative_to(root)}:{lineno}"
        if err:
            errors.append(f"{where}: {err}")
            continue
        seen += 1
        proc = subprocess.run(
            [str(cli), *argv, "--dry-run"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            errors.append(
                f"{where}: `race_cli {' '.join(argv)}` no longer parses "
                f"(exit {proc.returncode}): {proc.stderr.strip()}")
    if seen == 0:
        errors.append("no race_cli invocations found in docs — the "
                      "extraction regex or the docs rotted")
    else:
        print(f"checked {seen} race_cli invocation(s)")
    return errors


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--cli", type=pathlib.Path,
                    help="race_cli binary; omit to skip invocation checks")
    ap.add_argument("--root", type=pathlib.Path,
                    default=pathlib.Path(__file__).resolve().parent.parent)
    opts = ap.parse_args()
    if opts.cli:
        opts.cli = opts.cli.resolve()
        if not opts.cli.exists():
            print(f"error: no such race_cli binary: {opts.cli}",
                  file=sys.stderr)
            return 1

    errors = check_links(opts.root)
    print(f"checked links in {len(list(doc_files(opts.root)))} markdown "
          f"file(s)")
    errors += check_symbols(opts.root)
    if opts.cli:
        errors += check_commands(opts.root, opts.cli)
    for err in errors:
        print(f"error: {err}", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
