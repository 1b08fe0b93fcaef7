#!/usr/bin/env python3
"""HCF semantic linter: AST-grade, cross-function enforcement of the
transaction-body and combiner-protocol invariants that tools/lint/hcf_lint.py
can only check lexically.

The lexical linter sees the text of an htm::attempt lambda but not the
functions it calls: `htm::attempt([&] { helper(l); })` is lexically clean
even when `helper` takes a lock. This linter parses real translation units
with libclang, builds the intra-TU call graph, and walks it transitively.

Rules:

  sema-tx-transitive-purity
      No blocking call (lock/try_lock/join/sleep/wait_*), raw allocation
      (new / malloc family), write I/O, or strong mutation
      (htm::strong_*) may be *reachable* from an htm::attempt body
      through any chain of helpers defined in the analyzed tree. The
      simulator substrate itself (hcf::htm, hcf::mem) is the sanctioned
      funnel — htm::make / htm::retire_tx allocate and reclaim on the
      transaction's behalf — so the walk classifies calls into it but
      never descends into it.

  sema-telemetry-outside-tx
      No telemetry:: call may be reachable from an htm::attempt body,
      through any number of helpers (the cross-function half of the
      lexical tx-telemetry-call rule): an event record is a
      non-transactional side effect that survives aborts and replays on
      retry.

  sema-retire-before-publish
      Every call to publish_combined (the combined-count epoch bump that
      wakes selection-lock waiters) must be preceded, in statement order
      within the same function, by a call that performs mark_done —
      directly or transitively through a helper. Publishing before
      retiring wakes waiters that still observe their op pending, which
      degrades the O(1) helped-wakeup protocol back to lock re-polling
      (DESIGN.md §9.3).

Requires the `clang` Python bindings plus a loadable libclang shared
library. When either is missing the tool prints a notice and exits 77
(the CTest SKIP_RETURN_CODE convention) so local GCC-only environments
degrade gracefully; CI installs libclang and runs it for real.

Modes:
  hcf_semalint.py -p BUILD_DIR [path-prefix...]
      Parse every translation unit in BUILD_DIR/compile_commands.json
      whose main file matches one of the path prefixes (default: all),
      with each TU's recorded flags.
  hcf_semalint.py file.cpp [file2.cpp...] [-- clang-args...]
      Parse the named files directly (fixture/selftest mode).

Findings honor the lexical linter's suppression grammar in the file the
finding lands in: `// lint:allow(rule)` on the flagged line or
`// lint:allow-file(rule)` anywhere in that file; both accept
comma-separated rule lists. `--only-under DIR` (repeatable) restricts
reporting to findings located under the given directories — the tree scan
uses it to keep test-only helper code out of scope.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import re
import shlex
import sys

SKIP_EXIT = 77

RULES: dict[str, str] = {
    "sema-tx-transitive-purity":
        "no blocking/allocating/IO/strong call reachable from an "
        "htm::attempt body through any helper chain",
    "sema-telemetry-outside-tx":
        "no telemetry:: call reachable from an htm::attempt body",
    "sema-retire-before-publish":
        "publish_combined must be preceded by a (transitive) mark_done "
        "in the same function",
}

# Callee names that make a transaction body impure, by category. Names are
# matched against the unqualified callee spelling; the substrate namespaces
# below are never descended into, so their internal uses never surface.
BLOCKING_NAMES = {
    "lock", "try_lock", "join", "sleep_for", "sleep_until", "yield",
    "wait", "wait_done", "wait_until_free", "wait_writeback_drain",
    "arrive_and_wait",
    # Parking tier (util/parking.hpp): a parked transaction deadlocks the
    # quiescence gate; on real HTM the deschedule aborts it. hcf::util is
    # deliberately NOT in CUTOFF_PREFIXES, so chains through TieredWait /
    # ParkableEpoch are followed to these sinks.
    "park", "park_if", "park_on_epoch", "futex_wait",
}
ALLOC_NAMES = {"malloc", "calloc", "realloc", "aligned_alloc", "free"}
IO_NAMES = {
    "printf", "fprintf", "vfprintf", "puts", "fputs", "putchar",
    "fwrite", "fopen", "fflush", "write",
}
STRONG_NAMES = {"strong_store", "strong_cas", "strong_fetch_add"}

# The sanctioned substrate: calls INTO these namespaces are the legitimate
# transactional API (htm::make, htm::retire_tx, TxCell reads, EBR), so the
# reachability walk classifies a call's name but never follows the edge.
# Third-party/system namespaces are cut for scale, not sanction.
CUTOFF_PREFIXES = (
    "hcf::htm", "hcf::mem", "hcf::telemetry",
    "std", "__gnu_cxx", "testing",
)

ALLOW_LINE_RE = re.compile(r"lint:allow\(([^)]*)\)")
ALLOW_FILE_RE = re.compile(r"lint:allow-file\(([^)]*)\)")

MAX_DEPTH = 12  # helper-chain depth bound; protocol code is far shallower


class Finding:
    def __init__(self, path: str, line: int, rule: str, message: str,
                 chain: list[str]):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message
        self.chain = chain

    def __str__(self) -> str:
        via = f" [via {' -> '.join(self.chain)}]" if self.chain else ""
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}{via}"


def load_cindex():
    """Import clang.cindex and make sure a libclang is loadable; None if
    this environment cannot run the semantic linter."""
    try:
        from clang import cindex
    except Exception:
        return None
    override = os.environ.get("HCF_LIBCLANG")
    if override:
        try:
            cindex.Config.set_library_file(override)
        except Exception:
            pass
    try:
        cindex.Index.create()
        return cindex
    except Exception:
        pass
    # The bindings imported but their default library lookup failed; scan
    # the usual distro install locations.
    patterns = [
        "/usr/lib/llvm-*/lib/libclang.so*",
        "/usr/lib/*/libclang-*.so*",
        "/usr/lib/*/libclang.so*",
        "/usr/local/lib/libclang.so*",
    ]
    candidates: list[str] = []
    for pat in patterns:
        candidates.extend(glob.glob(pat))
    for cand in sorted(set(candidates), reverse=True):
        try:
            cindex.Config.set_library_file(cand)
            cindex.Index.create()
            return cindex
        except Exception:
            continue
    return None


class TuAnalyzer:
    """Per-translation-unit analysis: call-graph reachability from
    htm::attempt bodies plus the publish/retire ordering check."""

    def __init__(self, cindex, tu, only_under: list[str]):
        self.ck = cindex.CursorKind
        self.tu = tu
        self.only_under = [os.path.abspath(p) for p in only_under]
        self.defs_by_name: dict[str, list] = {}
        self.func_defs: list = []
        self.attempt_sites: list = []
        self.findings: list[Finding] = []
        self._marks_done_memo: dict[str, bool] = {}
        self._file_cache: dict[str, list[str]] = {}
        self._index_tu()

    # -- indexing ----------------------------------------------------------

    def _index_tu(self) -> None:
        fn_kinds = (self.ck.FUNCTION_DECL, self.ck.CXX_METHOD,
                    self.ck.CONSTRUCTOR, self.ck.DESTRUCTOR,
                    self.ck.FUNCTION_TEMPLATE, self.ck.CONVERSION_FUNCTION)
        for cur in self.tu.cursor.walk_preorder():
            if cur.kind in fn_kinds and cur.is_definition():
                if cur.spelling:
                    self.defs_by_name.setdefault(cur.spelling,
                                                 []).append(cur)
                self.func_defs.append(cur)
            elif cur.kind == self.ck.CALL_EXPR and \
                    self.call_name(cur) == "attempt" and \
                    self._mentions_htm(cur):
                self.attempt_sites.append(cur)

    def _mentions_htm(self, call) -> bool:
        toks = self._tokens(call)
        # Only look at the callee portion (tokens before the first '(').
        for i, t in enumerate(toks):
            if t == "(":
                return "htm" in toks[:i]
        return "htm" in toks

    def _tokens(self, cur) -> list[str]:
        try:
            return [t.spelling for t in cur.get_tokens()]
        except Exception:
            return []

    # -- cursor helpers ----------------------------------------------------

    def call_name(self, call) -> str:
        if call.spelling:
            return call.spelling
        ref = call.referenced
        if ref is not None and ref.spelling:
            return ref.spelling
        toks = self._tokens(call)
        for i, t in enumerate(toks):
            if t == "(" and i > 0:
                return toks[i - 1]
        return ""

    def qualified_name(self, cur) -> str:
        parts: list[str] = []
        c = cur
        while c is not None and c.kind != self.ck.TRANSLATION_UNIT:
            if c.spelling:
                parts.append(c.spelling)
            c = c.semantic_parent
        return "::".join(reversed(parts))

    def location(self, cur) -> tuple[str, int]:
        loc = cur.location
        path = loc.file.name if loc.file is not None else "<unknown>"
        return os.path.abspath(path), loc.line

    def in_scope(self, path: str) -> bool:
        if not self.only_under:
            return True
        return any(os.path.commonpath([path, root]) == root
                   for root in self.only_under
                   if self._same_drive(path, root))

    @staticmethod
    def _same_drive(a: str, b: str) -> bool:
        try:
            os.path.commonpath([a, b])
            return True
        except ValueError:
            return False

    def callee_defs(self, call) -> list:
        """Definitions a call may dispatch to: the resolved referent when
        libclang has one, otherwise every same-named definition in the TU
        (covers dependent calls in template patterns and virtual calls,
        deliberately over-approximating)."""
        ref = call.referenced
        if ref is not None:
            d = ref.get_definition()
            if d is not None:
                return [d]
        name = self.call_name(call)
        return self.defs_by_name.get(name, []) if name else []

    def descend_ok(self, func_def) -> bool:
        qual = self.qualified_name(func_def)
        for prefix in CUTOFF_PREFIXES:
            if qual == prefix or qual.startswith(prefix + "::"):
                return False
        path, _ = self.location(func_def)
        return path != "<unknown>" and not path.startswith("/usr/")

    def calls_in(self, body):
        """Every CALL_EXPR / CXX_NEW_EXPR under `body` in source order."""
        out = []
        for node in body.walk_preorder():
            if node.kind in (self.ck.CALL_EXPR, self.ck.CXX_NEW_EXPR):
                out.append(node)
        return out

    # -- suppression -------------------------------------------------------

    def _file_lines(self, path: str) -> list[str]:
        if path not in self._file_cache:
            try:
                with open(path, encoding="utf-8", errors="replace") as f:
                    self._file_cache[path] = f.read().splitlines()
            except OSError:
                self._file_cache[path] = []
        return self._file_cache[path]

    def suppressed(self, path: str, line: int, rule: str) -> bool:
        lines = self._file_lines(path)
        def names(rx, text):
            for m in rx.finditer(text):
                for r in m.group(1).split(","):
                    yield r.strip()
        if rule in names(ALLOW_FILE_RE, "\n".join(lines)):
            return True
        if 1 <= line <= len(lines):
            return rule in names(ALLOW_LINE_RE, lines[line - 1])
        return False

    def report(self, path: str, line: int, rule: str, message: str,
               chain: list[str]) -> None:
        if not self.in_scope(path):
            return
        if self.suppressed(path, line, rule):
            return
        rel = os.path.relpath(path)
        key = (rel, line, rule)
        if any((f.path, f.line, f.rule) == key for f in self.findings):
            return
        self.findings.append(Finding(rel, line, rule, message, chain))

    # -- rule 1+2: transitive reachability from attempt bodies -------------

    def classify_impure(self, call, name: str):
        if call.kind == self.ck.CXX_NEW_EXPR:
            return ("allocation (new expression)",
                    "transactional allocations go through htm::make")
        if name in BLOCKING_NAMES:
            return (f"blocking call '{name}'",
                    "transactions must never block (deadlocks against "
                    "the quiescence gate)")
        if name in ALLOC_NAMES:
            return (f"raw allocation '{name}'",
                    "transactional allocations go through htm::make")
        if name in IO_NAMES:
            return (f"I/O call '{name}'",
                    "I/O is a non-transactional side effect")
        if name in STRONG_NAMES:
            return (f"strong mutation '{name}'",
                    "strong ops doom the enclosing transaction")
        return None

    def is_telemetry_call(self, call, name: str) -> bool:
        ref = call.referenced
        if ref is not None and \
                self.qualified_name(ref).startswith("hcf::telemetry"):
            return True
        toks = self._tokens(call)
        for i, t in enumerate(toks[:-1]):
            if t == "telemetry" and toks[i + 1] == "::":
                return True
        return False

    def check_attempt_sites(self) -> None:
        for site in self.attempt_sites:
            lam = next((n for n in site.walk_preorder()
                        if n.kind == self.ck.LAMBDA_EXPR), None)
            if lam is None:
                continue
            site_path, site_line = self.location(site)
            origin = f"{os.path.basename(site_path)}:{site_line}"
            self._walk_body(lam, [f"attempt@{origin}"], set(), 0)

    def _walk_body(self, body, chain: list[str], visited: set,
                   depth: int) -> None:
        if depth > MAX_DEPTH:
            return
        for call in self.calls_in(body):
            name = self.call_name(call)
            path, line = self.location(call)
            verdict = self.classify_impure(call, name)
            if verdict is not None:
                what, why = verdict
                self.report(path, line, "sema-tx-transitive-purity",
                            f"{what} reachable from a transaction body; "
                            f"{why}", chain)
                continue
            if self.is_telemetry_call(call, name):
                self.report(path, line, "sema-telemetry-outside-tx",
                            "telemetry call reachable from a transaction "
                            "body; event records survive aborts and "
                            "replay on retry — hook around the attempt",
                            chain)
                continue
            for target in self.callee_defs(call):
                if not self.descend_ok(target):
                    continue
                usr = target.get_usr() or f"{self.location(target)}"
                if usr in visited:
                    continue
                visited.add(usr)
                tpath, tline = self.location(target)
                step = f"{name}@{os.path.basename(tpath)}:{tline}"
                self._walk_body(target, chain + [step], visited,
                                depth + 1)

    # -- rule 3: retire-before-publish ------------------------------------

    def marks_done(self, func_def, depth: int = 0) -> bool:
        """True if the function (transitively) calls mark_done."""
        usr = func_def.get_usr() or str(self.location(func_def))
        if usr in self._marks_done_memo:
            return self._marks_done_memo[usr]
        self._marks_done_memo[usr] = False  # cycle guard
        result = False
        if depth <= MAX_DEPTH:
            for call in self.calls_in(func_def):
                name = self.call_name(call)
                if name == "mark_done":
                    result = True
                    break
                if name == "publish_combined":
                    continue
                for target in self.callee_defs(call):
                    if self.descend_ok(target) and \
                            self.marks_done(target, depth + 1):
                        result = True
                        break
                if result:
                    break
        self._marks_done_memo[usr] = result
        return result

    def check_retire_before_publish(self) -> None:
        for func in self.func_defs:
            calls = [(c, self.call_name(c)) for c in self.calls_in(func)]
            publishes = [(c, i) for i, (c, n) in enumerate(calls)
                         if n == "publish_combined"]
            if not publishes:
                continue
            for call, idx in publishes:
                ok = False
                for before, name in (cn for cn in calls[:idx]):
                    if name == "mark_done":
                        ok = True
                        break
                    if any(self.descend_ok(t) and self.marks_done(t)
                           for t in self.callee_defs(before)):
                        ok = True
                        break
                if ok:
                    continue
                path, line = self.location(call)
                fq = self.qualified_name(func)
                self.report(
                    path, line, "sema-retire-before-publish",
                    f"publish_combined in '{fq}' with no preceding "
                    "(transitive) mark_done; publishing the combined "
                    "epoch before retiring ops wakes waiters that still "
                    "observe themselves pending (DESIGN.md §9.3)",
                    [])

    def run(self) -> list[Finding]:
        self.check_attempt_sites()
        self.check_retire_before_publish()
        return self.findings


# -- driving ---------------------------------------------------------------

def tu_diags_fatal(tu) -> list[str]:
    fatal = []
    for d in tu.diagnostics:
        if d.severity >= d.Error:
            fatal.append(str(d))
    return fatal


def compile_commands_entries(build_dir: str):
    cc_path = os.path.join(build_dir, "compile_commands.json")
    with open(cc_path, encoding="utf-8") as f:
        entries = json.load(f)
    for entry in entries:
        path = os.path.abspath(
            os.path.join(entry["directory"], entry["file"]))
        if "arguments" in entry:
            argv = list(entry["arguments"])
        else:
            argv = shlex.split(entry["command"])
        args = []
        skip_next = False
        for a in argv[1:]:  # drop the compiler itself
            if skip_next:
                skip_next = False
                continue
            if a in ("-c", entry["file"], path):
                continue
            if a == "-o":
                skip_next = True
                continue
            args.append(a)
        yield path, args


def analyze(cindex, units, only_under: list[str],
            verbose: bool) -> tuple[list[Finding], int]:
    index = cindex.Index.create()
    findings: list[Finding] = []
    errors = 0
    for path, args in units:
        try:
            tu = index.parse(path, args=args)
        except Exception as e:
            print(f"hcf_semalint: error: cannot parse {path}: {e}",
                  file=sys.stderr)
            errors += 1
            continue
        fatal = tu_diags_fatal(tu)
        if fatal:
            errors += 1
            print(f"hcf_semalint: error: {path} has parse errors:",
                  file=sys.stderr)
            for d in fatal[:5]:
                print(f"  {d}", file=sys.stderr)
            continue
        if verbose:
            print(f"hcf_semalint: analyzing {path}", file=sys.stderr)
        findings.extend(TuAnalyzer(cindex, tu, only_under).run())
    # Dedup across TUs (the same header finding surfaces in many TUs).
    seen = set()
    unique = []
    for f in findings:
        key = (f.path, f.line, f.rule)
        if key in seen:
            continue
        seen.add(key)
        unique.append(f)
    return unique, errors


def main(argv: list[str]) -> int:
    if "--" in argv:
        split = argv.index("--")
        argv, clang_args = argv[:split], argv[split + 1:]
    else:
        clang_args = []

    parser = argparse.ArgumentParser(
        description="Cross-function semantic lint of HCF protocol "
                    "invariants (libclang).")
    parser.add_argument("paths", nargs="*",
                        help="files to lint (direct mode) or path prefixes "
                             "to filter compile_commands entries (-p mode)")
    parser.add_argument("-p", "--build-dir", default=None,
                        help="build directory containing "
                             "compile_commands.json")
    parser.add_argument("--only-under", action="append", default=[],
                        help="report findings only under this directory "
                             "(repeatable)")
    parser.add_argument("--format", choices=("text", "json"),
                        default="text")
    parser.add_argument("--list-rules", action="store_true",
                        help="list rule ids with descriptions and exit")
    parser.add_argument("-q", "--quiet", action="store_true")
    parser.add_argument("-v", "--verbose", action="store_true")
    args = parser.parse_args(argv)

    if args.list_rules:
        if args.format == "json":
            print(json.dumps(
                [{"rule": r, "description": d}
                 for r, d in sorted(RULES.items())], indent=2))
        else:
            width = max(len(r) for r in RULES)
            for r, d in sorted(RULES.items()):
                print(f"{r:<{width}}  {d}")
        return 0

    cindex = load_cindex()
    if cindex is None:
        print("hcf_semalint: libclang not available (install the 'clang' "
              "python bindings + libclang, or set HCF_LIBCLANG); skipping",
              file=sys.stderr)
        return SKIP_EXIT

    if args.build_dir:
        try:
            entries = list(compile_commands_entries(args.build_dir))
        except (OSError, ValueError, KeyError) as e:
            print(f"hcf_semalint: error: cannot read compile commands in "
                  f"{args.build_dir}: {e}", file=sys.stderr)
            return 2
        prefixes = [os.path.abspath(p) for p in args.paths]
        units = [(path, a) for path, a in entries
                 if not prefixes or
                 any(path.startswith(p + os.sep) or path == p
                     for p in prefixes)]
        if not units:
            print("hcf_semalint: error: no matching translation units",
                  file=sys.stderr)
            return 2
    else:
        if not args.paths:
            parser.error("paths are required unless -p or --list-rules "
                         "is given")
        for p in args.paths:
            if not os.path.isfile(p):
                print(f"hcf_semalint: error: no such file: {p}",
                      file=sys.stderr)
                return 2
        units = [(os.path.abspath(p), clang_args) for p in args.paths]

    findings, errors = analyze(cindex, units, args.only_under,
                               args.verbose)
    if args.format == "json":
        print(json.dumps(
            [{"path": f.path, "line": f.line, "rule": f.rule,
              "message": f.message, "chain": f.chain}
             for f in findings], indent=2))
    else:
        for f in findings:
            print(f)
    if not args.quiet:
        print(f"hcf_semalint: {len(findings)} finding(s), "
              f"{errors} TU error(s)", file=sys.stderr)
    if errors:
        return 2
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
