#!/usr/bin/env python3
"""HCF protocol linter: mechanical enforcement of the simulated-HTM usage
restrictions that src/sim_htm/htm.hpp documents.

The simulator gives opacity and strong isolation only when callers follow
its protocol; breaking it does not fail fast, it corrupts data under
contention. This linter walks C++ sources and enforces the repo invariants
lexically (regex + brace matching on comment/string-stripped text — no
compiler dependency, by design):

  pragma-once            every header starts with #pragma once
  include-parent         no '..' segments in quoted includes (project
                         includes are root-relative)
  strong-outside-sim-htm htm::strong_* may only be called inside
                         src/sim_htm/ (everyone else goes through TxCell)
  raw-atomic-in-core     no raw std::atomic state in src/core/ — engine
                         shared state must be a TxCell so mutations doom
                         subscribed transactions
  tx-blocking-call       no blocking/waiting calls inside an htm::attempt
                         transaction body
  tx-catch-all           no catch (...) without rethrow inside a
                         transaction body
  tx-strong-op           no strong mutations (TxCell store/cas/fetch_add,
                         htm::strong_*) inside a transaction body
  tx-subscribe-first     in src/core/ engines, a transaction body's first
                         statement must subscribe to the elided lock
  raw-atomic-in-telemetry no raw std::atomic state in src/telemetry/
                         outside the sanctioned ring-buffer core (files
                         carrying a `lint:telemetry-core` marker); the
                         layer builds on EventRing/RuntimeGate instead
  tx-telemetry-call      no telemetry:: calls inside an htm::attempt
                         transaction body — an event record is a
                         non-transactional side effect that survives
                         aborts and replays on retry; hooks go around
                         attempts, never inside
  seq-cst-justification  every memory_order_seq_cst in src/sim_htm/ must
                         carry a '// seq_cst:' justification comment on
                         the same line or in the comment block directly
                         above — the substrate runs on acquire/release,
                         and each seq_cst is a proof obligation
  plain-store-justification
                         every TxCell store_plain / exchange_plain call in
                         src/core/ must carry a '// plain:' comment on the
                         same line or in the comment block directly above
                         its statement, saying why no live transaction can
                         hold the word in its read set — a plain store
                         dooms nobody, and which store must doom which
                         subscriber is exactly where this protocol breaks
  phase-telemetry-pairing
                         in src/core/, every telemetry::phase_enter must
                         be lexically paired with a later
                         telemetry::phase_exit whose first argument is
                         the same phase expression, with no `return`
                         between them — an early return inside the pair
                         leaves a dangling begin in the trace and the
                         Chrome exporter reports it as an orphan
  scan-requires-selection-lock
                         publication-array scans (.for_each_announced /
                         .collect_announced calls) in src/ and tests/ must
                         be visibly serialized: either a '// scan-locked:'
                         comment (same line or comment block directly
                         above) naming the lock that protects the scan, or
                         a selection-lock acquisition (selection_lock()
                         .lock()/.try_lock() or a LockGuard) within the 10
                         preceding lines — an unlocked scan races
                         clear_slot against concurrent combiners
  tsa-escape-justification
                         every NO_THREAD_SAFETY_ANALYSIS escape from the
                         Clang thread-safety analysis must carry a
                         '// tsa:' justification comment on the same line
                         or in the comment block directly above; the
                         macro's own preprocessor definition is exempt
  cross-shard-lock-order a loop that acquires shard locks (a lock()/
                         try_lock() statement in a loop whose header or
                         body mentions shards) must walk the indices in
                         ascending order: a classic for-loop needs ++/+=
                         in its header and no --/-=, a range-for is fine
                         (container order is index order). The global
                         ascending acquisition order is what makes the
                         cross-shard whole-structure path deadlock-free
                         (DESIGN.md §11); release order is unconstrained
                         because unlock statements do not match
  node-alloc-via-facade  no raw new/delete expressions in src/ds/: node
                         memory must flow through the mem:: facade
                         (htm::make / htm::retire on operation paths,
                         mem::alloc / mem::dealloc in teardown) so every
                         block carries the ownership header that batched
                         cross-thread retirement keys on; a raw delete of
                         a pooled block is heap corruption. Deliberate
                         escapes carry // lint:allow(node-alloc-via-facade)
  lint-directive         a lint:allow / lint:allow-file directive names a
                         rule this linter does not have (typo'd
                         suppressions otherwise fail silently open)

Suppressions (for deliberate violations, e.g. negative tests):
  // lint:allow(rule-id)        — suppress rule-id on this line
  // lint:allow-file(rule-id)   — suppress rule-id anywhere in this file
                                  (position-independent: the directive may
                                  sit above or below the violation)
  // lint:allow(rule-a, rule-b) — both directives accept a comma-separated
                                  rule list
  // lint:zone(core)            — override the path-derived zone (fixtures)
  // lint:telemetry-core        — marks the telemetry atomic core (exempts
                                  the file from raw-atomic-in-telemetry)

Diagnostics are 'file:line: [rule-id] message' (or a JSON array with
--format=json); exit status is non-zero iff any diagnostic was emitted.
Lexical limits: the transaction-body rules see only the text of the lambda
itself, not functions it calls — tools/lint/hcf_semalint.py covers the
cross-function half of these invariants when libclang is available.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

# Rule registry: id -> one-line description (--list-rules; directive
# validation). The module docstring above carries the long-form rationale.
RULES: dict[str, str] = {
    "pragma-once": "headers must start with #pragma once",
    "include-parent": "no '..' segments in quoted includes",
    "strong-outside-sim-htm":
        "htm::strong_* calls are confined to src/sim_htm/",
    "raw-atomic-in-core":
        "no raw std::atomic engine state; shared words go through TxCell",
    "raw-atomic-in-telemetry":
        "telemetry atomics are confined to the lint:telemetry-core file",
    "tx-blocking-call": "no blocking/waiting calls in a transaction body",
    "tx-catch-all": "no catch (...) without rethrow in a transaction body",
    "tx-strong-op": "no strong mutations in a transaction body",
    "tx-subscribe-first":
        "engine transaction bodies subscribe to the lock first",
    "tx-telemetry-call": "no telemetry:: calls in a transaction body",
    "seq-cst-justification":
        "memory_order_seq_cst in src/sim_htm/ needs a '// seq_cst:' comment",
    "plain-store-justification":
        "store_plain/exchange_plain in src/core/ needs a '// plain:' comment",
    "phase-telemetry-pairing":
        "phase_enter needs a matching phase_exit with no return between",
    "scan-requires-selection-lock":
        "publication-array scans need visible selection-lock serialization",
    "tsa-escape-justification":
        "NO_THREAD_SAFETY_ANALYSIS needs an adjacent '// tsa:' comment",
    "cross-shard-lock-order":
        "all-shard lock acquisition loops must walk shard indices ascending",
    "node-alloc-via-facade":
        "no raw new/delete in src/ds/; node memory goes through mem::alloc"
        "/mem::dealloc/mem::retire (htm::make/htm::retire on hot paths)",
    "lint-directive":
        "suppression directives must name rules that actually exist",
}

HEADER_EXTS = {".hpp", ".h", ".hh", ".hxx"}
SOURCE_EXTS = HEADER_EXTS | {".cpp", ".cc", ".cxx"}

# Directive arguments are captured whole and split on commas below, so
# `lint:allow(rule-a, rule-b)` suppresses both rules. (A char-class-only
# capture used to stop at the first comma and silently ignore the rest.)
ALLOW_LINE_RE = re.compile(r"lint:allow\(([^)]*)\)")
ALLOW_FILE_RE = re.compile(r"lint:allow-file\(([^)]*)\)")
ZONE_RE = re.compile(
    r"lint:zone\((sim_htm|core|telemetry|ds|src|tests|other)\)")
TELEMETRY_CORE_RE = re.compile(r"lint:telemetry-core")

STRONG_CALL_RE = re.compile(
    r"\b(?:htm::)?(strong_store|strong_cas|strong_fetch_add|strong_load)\s*\(")
RAW_ATOMIC_RE = re.compile(r"\bstd::atomic(?:_ref)?\s*<")
PRAGMA_ONCE_RE = re.compile(r"^\s*#\s*pragma\s+once\b")
INCLUDE_PARENT_RE = re.compile(r'^\s*#\s*include\s+"[^"]*\.\./')
ATTEMPT_RE = re.compile(r"\bhtm::attempt\s*\(")

# Calls that block or wait; none may appear inside a transaction body.
# A transaction that blocks can deadlock against the quiescence gate
# (wait_writeback_drain spins while our commit is pending) and, on real
# HTM, would simply abort.
BLOCKING_RES = [
    (re.compile(r"(?:\.|->)lock\s*\("), "lock acquisition"),
    (re.compile(r"\btry_lock\s*\("), "lock acquisition"),
    (re.compile(r"\bLockGuard\b"), "lock guard"),
    (re.compile(r"\bstd::(?:mutex|shared_mutex|condition_variable)\b"),
     "OS synchronization primitive"),
    (re.compile(r"\bwait_done\s*\("), "waiting on another operation"),
    (re.compile(r"\bwait_until_free\s*\("), "waiting on a lock"),
    (re.compile(r"\bwait_writeback_drain\s*\("), "waiting on quiescence"),
    (re.compile(r"(?:\.|->)join\s*\("), "thread join"),
    (re.compile(r"\bsleep(?:_for|_until)?\s*\("), "sleeping"),
    (re.compile(r"\bstd::this_thread::yield\s*\("), "yielding"),
    (re.compile(r"\barrive_and_wait\s*\("), "barrier wait"),
    # Parking tier (util/parking.hpp): a parked transaction deadlocks the
    # quiescence gate; on real HTM the deschedule aborts it. Wakes are
    # syscalls too — any futex traffic inside a transaction is a protocol
    # break, sleeping or not.
    (re.compile(r"\bfutex_wait\w*\s*\("), "futex wait"),
    (re.compile(r"\bfutex_wake\w*\s*\("), "futex wake syscall"),
    (re.compile(r"(?:\butil::|\.|->)park\s*\("), "futex parking"),
    (re.compile(r"\bpark_(?:if|on_epoch)\s*\("), "futex parking"),
    (re.compile(r"\bwake_epoch_waiters\s*\("), "epoch wake syscall"),
]

# Strong (non-transactional) mutations: dooming operations that must never
# run from inside a transaction (protocol_check.hpp traps these at runtime;
# this is the static half of the same check). `.store(`/.cas(/.fetch_add(
# are the TxCell mutator spellings.
TX_STRONG_RES = [
    (re.compile(r"\bstrong_(?:store|cas|fetch_add)\s*\("), "htm::strong_*"),
    (re.compile(r"(?:\.|->)store\s*\("), "TxCell::store"),
    (re.compile(r"(?:\.|->)store_plain\s*\("), "TxCell::store_plain"),
    (re.compile(r"(?:\.|->)cas\s*\("), "TxCell::cas"),
    (re.compile(r"(?:\.|->)fetch_add\s*\("), "TxCell::fetch_add"),
]

SUBSCRIBE_RE = re.compile(r"\bsubscribe\s*\(\s*\)")

SEQ_CST_RE = re.compile(r"\bmemory_order_seq_cst\b")
SEQ_CST_JUSTIFICATION_RE = re.compile(r"//\s*seq_cst:")

PLAIN_STORE_RE = re.compile(r"(?:\.|->)\s*(store_plain|exchange_plain)\s*\(")
PLAIN_JUSTIFICATION_RE = re.compile(r"//\s*plain:")

# Member calls only (pa.for_each_announced(...)): the unqualified uses
# inside PublicationArray itself document their precondition in place.
SCAN_CALL_RE = re.compile(
    r"(?:\.|->)\s*(?:for_each_announced|collect_announced)\s*\(")
SCAN_LOCKED_RE = re.compile(r"//\s*scan-locked:")
SCAN_LOCK_ACQ_RE = re.compile(
    r"selection_lock\s*\(\s*\)\s*\.\s*(?:try_)?lock\s*\(|\bLockGuard\b")
SCAN_LOCK_WINDOW = 10  # raw lines above the call searched for an acquisition
COMMENT_LINE_RE = re.compile(r"^\s*//")

TELEMETRY_CALL_RE = re.compile(r"\btelemetry::\w+\s*\(")

TSA_ESCAPE_RE = re.compile(r"\bNO_THREAD_SAFETY_ANALYSIS\b")
TSA_JUSTIFICATION_RE = re.compile(r"//\s*tsa:")

PHASE_ENTER_RE = re.compile(r"\btelemetry::phase_enter\s*\(")
PHASE_EXIT_RE = re.compile(r"\btelemetry::phase_exit\s*\(")
RETURN_RE = re.compile(r"\breturn\b")

# Statement-anchored lock acquisition: `x.lock();` / `x->try_lock();`.
# The trailing `;` matters — `shards_[i]->lock().unlock();` contains the
# accessor spelling `->lock(` but is a release, not an acquisition, and
# must not match. The `.`/`->` prefix keeps `unlock()` itself out.
# Any raw allocation expression in src/ds/. Operator names (`operator new`)
# and the facade's own placement new live in mem/, not ds/, so a keyword
# match is exact here once `= delete` (deleted special members — the only
# non-expression use of either keyword) is filtered out in the check;
# deliberate escapes carry lint:allow.
NEW_DELETE_RE = re.compile(r"\b(new|delete)\b")

FOR_LOOP_RE = re.compile(r"\bfor\s*\(")
SHARD_LOCK_ACQ_RE = re.compile(r"(?:\.|->)\s*(?:try_)?lock\s*\(\s*\)\s*;")
SHARD_WORD_RE = re.compile(r"\bshard", re.IGNORECASE)
ASCENDING_STEP_RE = re.compile(r"\+\+|\+=")
DESCENDING_STEP_RE = re.compile(r"--|-=")


class Diagnostic:
    def __init__(self, path: str, line: int, rule: str, message: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_comments_and_strings(text: str) -> str:
    """Blank out comments, string and char literals, preserving newlines and
    column positions so offsets keep mapping to file lines."""
    out = []
    i, n = 0, len(text)
    mode = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if mode == "code":
            if c == "/" and nxt == "/":
                mode = "line_comment"
                out.append("  ")
                i += 2
            elif c == "/" and nxt == "*":
                mode = "block_comment"
                out.append("  ")
                i += 2
            elif c == '"':
                mode = "string"
                out.append(" ")
                i += 1
            elif c == "'":
                mode = "char"
                out.append(" ")
                i += 1
            else:
                out.append(c)
                i += 1
        elif mode == "line_comment":
            if c == "\n":
                mode = "code"
                out.append("\n")
            else:
                out.append(" ")
            i += 1
        elif mode == "block_comment":
            if c == "*" and nxt == "/":
                mode = "code"
                out.append("  ")
                i += 2
            else:
                out.append("\n" if c == "\n" else " ")
                i += 1
        else:  # string or char
            quote = '"' if mode == "string" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
            elif c == quote:
                mode = "code"
                out.append(" ")
                i += 1
            else:
                out.append("\n" if c == "\n" else " ")
                i += 1
    return "".join(out)


def zone_for(path: str, raw_text: str) -> str:
    """Classify a file into a rule-scoping zone from its path, with a
    lint:zone(...) override for fixture files."""
    m = ZONE_RE.search(raw_text)
    if m:
        return m.group(1)
    norm = path.replace(os.sep, "/")
    if "/src/sim_htm/" in norm or norm.startswith("src/sim_htm/"):
        return "sim_htm"
    if "/src/core/" in norm or norm.startswith("src/core/"):
        return "core"
    if "/src/telemetry/" in norm or norm.startswith("src/telemetry/"):
        return "telemetry"
    if "/src/ds/" in norm or norm.startswith("src/ds/"):
        return "ds"
    if "/src/" in norm or norm.startswith("src/"):
        return "src"
    if "/tests/" in norm or norm.startswith("tests/"):
        return "tests"
    return "other"


class FileLinter:
    def __init__(self, path: str, raw_text: str):
        self.path = path
        self.raw = raw_text
        self.raw_lines = raw_text.splitlines()
        self.stripped = strip_comments_and_strings(raw_text)
        self.lines = self.stripped.splitlines()
        self.zone = zone_for(path, raw_text)
        self.diags: list[Diagnostic] = []
        # Directive pre-pass: both directive kinds are collected for the
        # whole file before any rule runs, so lint:allow-file works whether
        # it sits above or below the violation it suppresses. Rule names
        # are validated against the registry — a typo'd suppression must
        # not fail silently open.
        self.file_allows: set[str] = set()
        self.line_allows: dict[int, set[str]] = {}
        for idx, line in enumerate(self.raw_lines, start=1):
            for m in ALLOW_FILE_RE.finditer(line):
                self.file_allows.update(self.parse_directive(idx, m.group(1)))
            line_rules: set[str] = set()
            for m in ALLOW_LINE_RE.finditer(line):
                line_rules.update(self.parse_directive(idx, m.group(1)))
            if line_rules:
                self.line_allows[idx] = line_rules

    def parse_directive(self, line: int, blob: str) -> set[str]:
        """Split a directive's argument list, reporting unknown rules."""
        rules = set()
        for name in (r.strip() for r in blob.split(",")):
            if not name:
                continue
            # sema-* rules belong to tools/lint/hcf_semalint.py, which
            # honors the same directive grammar; they are valid names
            # here, they just never suppress a lexical rule.
            if name.startswith("sema-"):
                continue
            if name not in RULES:
                self.report(line, "lint-directive",
                            f"suppression names unknown rule '{name}'")
                continue
            rules.add(name)
        return rules

    def report(self, line: int, rule: str, message: str) -> None:
        if rule in self.file_allows:
            return
        if rule in self.line_allows.get(line, set()):
            return
        self.diags.append(Diagnostic(self.path, line, rule, message))

    # -- offset helpers ----------------------------------------------------

    def line_of(self, offset: int) -> int:
        return self.stripped.count("\n", 0, offset) + 1

    def match_brace(self, open_idx: int) -> int:
        """Index of the '}' matching the '{' at open_idx, or -1."""
        depth = 0
        for i in range(open_idx, len(self.stripped)):
            c = self.stripped[i]
            if c == "{":
                depth += 1
            elif c == "}":
                depth -= 1
                if depth == 0:
                    return i
        return -1

    # -- rules -------------------------------------------------------------

    def check_pragma_once(self) -> None:
        _, ext = os.path.splitext(self.path)
        if ext not in HEADER_EXTS:
            return
        for line in self.raw_lines:
            if PRAGMA_ONCE_RE.match(line):
                return
        self.report(1, "pragma-once", "header is missing '#pragma once'")

    def check_includes(self) -> None:
        for idx, line in enumerate(self.raw_lines, start=1):
            if INCLUDE_PARENT_RE.match(line):
                self.report(idx, "include-parent",
                            "include path uses '..'; project includes are "
                            "root-relative (see CMake include_directories)")

    def check_strong_outside_sim_htm(self) -> None:
        if self.zone not in ("src", "core", "ds"):
            return
        for m in STRONG_CALL_RE.finditer(self.stripped):
            self.report(
                self.line_of(m.start()), "strong-outside-sim-htm",
                f"direct call to htm::{m.group(1)}; engine-shared words "
                "must be TxCell so strong mutations doom subscribed "
                "transactions")

    def check_raw_atomic_in_core(self) -> None:
        if self.zone != "core":
            return
        for m in RAW_ATOMIC_RE.finditer(self.stripped):
            self.report(
                self.line_of(m.start()), "raw-atomic-in-core",
                "raw std::atomic in an engine; shared engine state must go "
                "through TxCell (or carry a lint:allow with justification "
                "if it is never read transactionally)")

    def check_raw_atomic_in_telemetry(self) -> None:
        if self.zone != "telemetry":
            return
        if TELEMETRY_CORE_RE.search(self.raw):
            return  # the sanctioned lock-free core (ring_buffer.hpp)
        for m in RAW_ATOMIC_RE.finditer(self.stripped):
            self.report(
                self.line_of(m.start()), "raw-atomic-in-telemetry",
                "raw std::atomic in the telemetry layer; only the "
                "lint:telemetry-core ring-buffer file may hold atomic "
                "state — build on EventRing/RuntimeGate instead")

    def check_seq_cst_justification(self) -> None:
        if self.zone != "sim_htm":
            return
        for m in SEQ_CST_RE.finditer(self.stripped):
            line = self.line_of(m.start())
            if self.seq_cst_justified(line):
                continue
            self.report(
                line, "seq-cst-justification",
                "memory_order_seq_cst without an adjacent '// seq_cst:' "
                "justification comment; the substrate's ordering diet "
                "requires each remaining seq_cst to document the proof "
                "obligation it discharges (DESIGN.md, Substrate "
                "performance)")

    def seq_cst_justified(self, line: int) -> bool:
        """True if raw line `line` (1-based) carries a '// seq_cst:' marker
        or sits directly under a comment block containing one."""
        return self.marker_adjacent(line, SEQ_CST_JUSTIFICATION_RE)

    def check_plain_store_justification(self) -> None:
        if self.zone != "core":
            return
        for m in PLAIN_STORE_RE.finditer(self.stripped):
            line = self.line_of(m.start())
            # The marker may sit above a statement that wraps onto the call
            # line (`const auto old =\n    word.exchange_plain(...)`).
            if (self.marker_adjacent(line, PLAIN_JUSTIFICATION_RE)
                    or self.marker_adjacent(self.statement_line(m.start()),
                                            PLAIN_JUSTIFICATION_RE)):
                continue
            self.report(
                line, "plain-store-justification",
                f"{m.group(1)} without an adjacent '// plain:' "
                "justification comment; a plain store dooms no subscriber, "
                "so each site must say why no live transaction can hold "
                "the word in its read set (DESIGN.md, TxCell mutation "
                "sites)")

    def statement_line(self, offset: int) -> int:
        """Line of the first token of the statement containing `offset`."""
        i = offset
        while i > 0 and self.stripped[i - 1] not in ";{}":
            i -= 1
        while i < offset and self.stripped[i].isspace():
            i += 1
        return self.line_of(i)

    def marker_adjacent(self, line: int, rx) -> bool:
        """True if raw line `line` (1-based) matches `rx` or sits directly
        under a comment block with a matching line."""
        if rx.search(self.raw_lines[line - 1]):
            return True
        i = line - 1  # 0-based index of the line above
        while i >= 1 and COMMENT_LINE_RE.match(self.raw_lines[i - 1]):
            if rx.search(self.raw_lines[i - 1]):
                return True
            i -= 1
        return False

    def check_tsa_escape_justification(self) -> None:
        for m in TSA_ESCAPE_RE.finditer(self.stripped):
            line = self.line_of(m.start())
            # The macro's own preprocessor plumbing (definition in
            # thread_annotations.hpp, any conditional redefinitions) is
            # not an escape site.
            if self.raw_lines[line - 1].lstrip().startswith("#"):
                continue
            if self.marker_adjacent(line, TSA_JUSTIFICATION_RE):
                continue
            self.report(
                line, "tsa-escape-justification",
                "NO_THREAD_SAFETY_ANALYSIS without an adjacent '// tsa:' "
                "justification comment; every escape from the clang "
                "thread-safety analysis is a proof obligation and must "
                "document why the capability model cannot express this "
                "site (docs/static_analysis.md)")

    def check_scan_requires_selection_lock(self) -> None:
        if self.zone not in ("core", "src", "ds", "tests"):
            return
        for m in SCAN_CALL_RE.finditer(self.stripped):
            line = self.line_of(m.start())
            if self.marker_adjacent(line, SCAN_LOCKED_RE):
                continue
            lo = max(0, line - 1 - SCAN_LOCK_WINDOW)
            window = self.raw_lines[lo:line - 1]
            if any(SCAN_LOCK_ACQ_RE.search(l) for l in window):
                continue
            self.report(
                line, "scan-requires-selection-lock",
                "publication-array scan with no visible serialization; "
                "acquire the selection lock nearby or add a "
                "'// scan-locked:' comment naming the lock that makes "
                "this scan safe (unlocked scans race clear_slot against "
                "concurrent combiners)")

    def match_paren(self, open_idx: int) -> int:
        """Index of the ')' matching the '(' at open_idx, or -1. Tracks all
        bracket kinds so lambdas/subscripts inside the parens don't
        unbalance the walk."""
        depth = 0
        for i in range(open_idx, len(self.stripped)):
            c = self.stripped[i]
            if c in "([{":
                depth += 1
            elif c in ")]}":
                depth -= 1
                if depth == 0:
                    return i
        return -1

    def check_cross_shard_lock_order(self) -> None:
        if self.zone not in ("core", "src", "ds", "tests"):
            return
        for m in FOR_LOOP_RE.finditer(self.stripped):
            open_idx = m.end() - 1
            close_idx = self.match_paren(open_idx)
            if close_idx < 0:
                continue
            header = self.stripped[open_idx + 1:close_idx]
            # Loop body: a braced block or a single statement.
            i = close_idx + 1
            while i < len(self.stripped) and self.stripped[i].isspace():
                i += 1
            if i >= len(self.stripped):
                continue
            if self.stripped[i] == "{":
                end = self.match_brace(i)
                body = self.stripped[i:end + 1] if end >= 0 else ""
            else:
                semi = self.stripped.find(";", i)
                body = self.stripped[i:semi + 1] if semi >= 0 else ""
            if not SHARD_LOCK_ACQ_RE.search(body):
                continue
            if not (SHARD_WORD_RE.search(header)
                    or SHARD_WORD_RE.search(body)):
                continue
            # Range-for (no clause separators) walks container order, which
            # for a shard vector IS index order.
            depth = 0
            semis = 0
            for c in header:
                if c in "([{":
                    depth += 1
                elif c in ")]}":
                    depth -= 1
                elif c == ";" and depth == 0:
                    semis += 1
            if semis < 2:
                continue
            if (DESCENDING_STEP_RE.search(header)
                    or not ASCENDING_STEP_RE.search(header)):
                self.report(
                    self.line_of(m.start()), "cross-shard-lock-order",
                    "shard-lock acquisition loop does not walk shard "
                    "indices in ascending order; the cross-shard "
                    "whole-structure path is deadlock-free only because "
                    "every all-shard acquisition uses the same global "
                    "ascending index order (DESIGN.md §11) — iterate "
                    "`for (i = 0; i < n; ++i)` or range-for over the "
                    "shard container")

    def first_call_arg(self, open_paren: int) -> str | None:
        """First argument of the call whose '(' sits at `open_paren` in the
        stripped text (text up to the first depth-1 comma or the matching
        ')'), whitespace-normalized. None if the parens never close."""
        depth = 0
        for i in range(open_paren, len(self.stripped)):
            c = self.stripped[i]
            if c in "([{":
                depth += 1
            elif c in ")]}":
                depth -= 1
                if depth == 0:
                    return re.sub(r"\s+", "",
                                  self.stripped[open_paren + 1:i])
            elif c == "," and depth == 1:
                return re.sub(r"\s+", "", self.stripped[open_paren + 1:i])
        return None

    def check_phase_telemetry_pairing(self) -> None:
        if self.zone != "core":
            return
        # (offset-of-'(', first-arg) for every phase_exit, in file order.
        exits = []
        for m in PHASE_EXIT_RE.finditer(self.stripped):
            exits.append((m.start(), self.first_call_arg(m.end() - 1)))
        for m in PHASE_ENTER_RE.finditer(self.stripped):
            arg = self.first_call_arg(m.end() - 1)
            line = self.line_of(m.start())
            matched_at = -1
            for start, exit_arg in exits:
                if start > m.start() and exit_arg == arg:
                    matched_at = start
                    break
            if matched_at < 0:
                self.report(
                    line, "phase-telemetry-pairing",
                    f"phase_enter({arg}) has no later phase_exit for the "
                    "same phase in this file; a dangling begin shows up "
                    "as an orphan in the Chrome trace")
                continue
            if RETURN_RE.search(self.stripped[m.end():matched_at]):
                self.report(
                    line, "phase-telemetry-pairing",
                    f"return between phase_enter({arg}) and its matching "
                    "phase_exit; early exits must emit phase_exit first "
                    "or hoist the return past the pair")

    def check_node_alloc_via_facade(self) -> None:
        if self.zone != "ds":
            return
        for m in NEW_DELETE_RE.finditer(self.stripped):
            kw = m.group(1)
            # `= delete` / `= new` is never an allocation: the former is a
            # deleted special member, the latter is not valid C++ without an
            # operand — but `x = new Node` IS, so only `delete` is exempt.
            before = self.stripped[:m.start()].rstrip()
            if kw == "delete" and before.endswith("="):
                continue
            if kw == "new":
                self.report(
                    self.line_of(m.start()), "node-alloc-via-facade",
                    "raw 'new' in src/ds/; node allocation must go through "
                    "htm::make (hot paths) or mem::alloc — pooled blocks "
                    "carry the ownership header cross-thread retirement "
                    "relies on")
            else:
                self.report(
                    self.line_of(m.start()), "node-alloc-via-facade",
                    "raw 'delete' in src/ds/; use mem::dealloc for "
                    "single-owner teardown or htm::retire/mem::retire for "
                    "published nodes — a raw delete on a pooled block "
                    "corrupts the arena")

    def tx_bodies(self):
        """Yield (start_offset, end_offset) of every htm::attempt lambda
        body (offsets of '{' and its matching '}')."""
        for m in ATTEMPT_RE.finditer(self.stripped):
            open_idx = self.stripped.find("{", m.end())
            if open_idx < 0:
                continue
            close_idx = self.match_brace(open_idx)
            if close_idx < 0:
                continue
            yield open_idx, close_idx

    def check_tx_bodies(self) -> None:
        for open_idx, close_idx in self.tx_bodies():
            body = self.stripped[open_idx + 1:close_idx]
            base = open_idx + 1

            for rx, what in BLOCKING_RES:
                for m in rx.finditer(body):
                    self.report(
                        self.line_of(base + m.start()), "tx-blocking-call",
                        f"{what} inside a transaction body; transactions "
                        "must never block (deadlocks against the "
                        "quiescence gate)")

            for rx, what in TX_STRONG_RES:
                for m in rx.finditer(body):
                    self.report(
                        self.line_of(base + m.start()), "tx-strong-op",
                        f"{what} inside a transaction body; strong "
                        "mutations must run outside transactions "
                        "(use tx_write for buffered writes)")

            for m in TELEMETRY_CALL_RE.finditer(body):
                self.report(
                    self.line_of(base + m.start()), "tx-telemetry-call",
                    "telemetry call inside a transaction body; an event "
                    "record is a non-transactional side effect that "
                    "survives aborts and replays on retry — hook around "
                    "the attempt, not inside it")

            self.check_catch_all(body, base)

            if self.zone == "core":
                self.check_subscribe_first(body, base)

    def check_catch_all(self, body: str, base: int) -> None:
        for m in re.finditer(r"\bcatch\s*\(\s*\.\.\.\s*\)", body):
            open_idx = body.find("{", m.end())
            if open_idx < 0:
                continue
            depth = 0
            close_idx = -1
            for i in range(open_idx, len(body)):
                if body[i] == "{":
                    depth += 1
                elif body[i] == "}":
                    depth -= 1
                    if depth == 0:
                        close_idx = i
                        break
            handler = body[open_idx:close_idx] if close_idx > 0 else ""
            if not re.search(r"\bthrow\s*;", handler):
                self.report(
                    self.line_of(base + m.start()), "tx-catch-all",
                    "catch (...) without rethrow inside a transaction "
                    "body; swallowing TxAbort breaks the abort protocol")

    def check_subscribe_first(self, body: str, base: int) -> None:
        first_stmt_end = body.find(";")
        first_stmt = body[:first_stmt_end] if first_stmt_end >= 0 else body
        if not SUBSCRIBE_RE.search(first_stmt):
            self.report(
                self.line_of(base), "tx-subscribe-first",
                "engine transaction body must subscribe to the elided "
                "lock in its first statement (TLE discipline: the lock "
                "word joins the read set before any data access)")

    def run(self) -> list[Diagnostic]:
        self.check_pragma_once()
        self.check_includes()
        self.check_strong_outside_sim_htm()
        self.check_raw_atomic_in_core()
        self.check_raw_atomic_in_telemetry()
        self.check_seq_cst_justification()
        self.check_plain_store_justification()
        self.check_tsa_escape_justification()
        self.check_scan_requires_selection_lock()
        self.check_cross_shard_lock_order()
        self.check_node_alloc_via_facade()
        self.check_phase_telemetry_pairing()
        self.check_tx_bodies()
        return self.diags


def collect_files(paths: list[str]) -> list[str]:
    files = []
    for p in paths:
        if not os.path.exists(p):
            raise FileNotFoundError(p)
        if os.path.isfile(p):
            files.append(p)
            continue
        for root, dirs, names in os.walk(p):
            dirs[:] = sorted(d for d in dirs
                             if not d.startswith(("build", ".")))
            for name in sorted(names):
                _, ext = os.path.splitext(name)
                if ext in SOURCE_EXTS:
                    files.append(os.path.join(root, name))
    return files


def lint_paths(paths: list[str]) -> list[Diagnostic]:
    diags = []
    for path in collect_files(paths):
        try:
            with open(path, encoding="utf-8", errors="replace") as f:
                text = f.read()
        except OSError as e:
            print(f"{path}: cannot read: {e}", file=sys.stderr)
            continue
        diags.extend(FileLinter(path, text).run())
    return diags


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        description="Lint C++ sources for HCF/simulated-HTM protocol "
                    "violations.")
    parser.add_argument("paths", nargs="*",
                        help="files or directories to lint")
    parser.add_argument("-q", "--quiet", action="store_true",
                        help="suppress the summary line")
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="diagnostic output format (default: text)")
    parser.add_argument("--list-rules", action="store_true",
                        help="list rule ids with descriptions and exit")
    args = parser.parse_args(argv)

    if args.list_rules:
        if args.format == "json":
            print(json.dumps(
                [{"rule": rule, "description": desc}
                 for rule, desc in sorted(RULES.items())], indent=2))
        else:
            width = max(len(rule) for rule in RULES)
            for rule, desc in sorted(RULES.items()):
                print(f"{rule:<{width}}  {desc}")
        return 0

    if not args.paths:
        parser.error("paths are required unless --list-rules is given")

    try:
        diags = lint_paths(args.paths)
    except FileNotFoundError as e:
        # A typo'd path must not read as "0 diagnostics, all clean".
        print(f"hcf_lint: error: no such file or directory: {e.args[0]}",
              file=sys.stderr)
        return 2
    if args.format == "json":
        print(json.dumps(
            [{"path": d.path, "line": d.line, "rule": d.rule,
              "message": d.message} for d in diags], indent=2))
    else:
        for d in diags:
            print(d)
    if not args.quiet:
        print(f"hcf_lint: {len(diags)} diagnostic(s)", file=sys.stderr)
    return 1 if diags else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
