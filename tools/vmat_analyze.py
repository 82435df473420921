#!/usr/bin/env python3
"""vmat-analyze: libclang semantic analyzer for the VMAT codebase.

vmat-lint (tools/vmat_lint.py) proves the invariants that are visible in
source *text*. This analyzer proves the ones that need types, scopes, and
call structure — it parses real translation units through libclang (driven
by the build's compile_commands.json) and walks the AST. Four rule
families, each named and individually suppressible:

  shard-race              Writes to non-shard-local state reachable from a
                          phase_shard.h worker callable (a lambda handed to
                          for_each_shard): assignments / compound assigns /
                          ++ / -- and non-const method calls whose target
                          resolves to a by-reference capture, a captured
                          `this`, or a global/static — unless the access
                          path is indexed (operator[] / at / a subscript),
                          which is the sanctioned per-node / per-shard
                          slot discipline, or the terminal call is on the
                          documented shard-safe API list (take_inbox,
                          receive_valid, ShardedTrace::shard).
  snapshot-field-coverage For every class with a save/load pair
                          (snapshot_save/snapshot_load, or the
                          coordinator's capture_snapshot/restore_snapshot),
                          every non-static data member must be referenced
                          by at least one of the pair's bodies. A member
                          added without updating the snapshot path smears
                          stale state into every fork; deliberate
                          exclusions (immutable identity, caches, scratch)
                          carry an allow() naming why.
  expected-discarded      An Expected<T>/Status/Error result discarded as
                          a bare expression statement or (void)-cast away,
                          and error-path returns that consult neither
                          `e.error()` nor `e` while manufacturing a fresh
                          value — the underlying error code is dropped.
  pool-escape             Stack locals captured by reference into a task
                          whose lifetime cannot be proven to outlast them:
                          a ref-capturing lambda that is returned, stored
                          into a member / global / static std::function or
                          container, or handed to std::thread / std::async.
                          (Direct arguments to the *synchronous* pool entry
                          points — ThreadPool::for_each,
                          parallel_for_trials, for_each_shard — join before
                          returning and are safe by construction.)

Suppression syntax (same grammar as vmat-lint, distinct prefix, so both
tools share one auditable trail; every allow should carry a justification):

  risky();  // vmat-analyze: allow(rule-name) -- justification
  // vmat-analyze: allow(rule-name) -- justification   (line above)
  // vmat-analyze: allow-file(rule-name)               (whole file)

Exit status:
  0  clean
  1  findings reported
  2  infrastructure error (bad arguments, unparseable TU, broken compdb)
  3  libclang / python-clang bindings unavailable (ctest maps this to
     SKIP via SKIP_RETURN_CODE — the gate degrades, it never fails)

Output: path:line:col: [rule-name] message   (plus --json for CI).
"""

from __future__ import annotations

import argparse
import glob as globmod
import json
import os
import re
import sys
from pathlib import Path

CXX_TU_SUFFIXES = {".cpp", ".cc", ".cxx"}

RULE_NAMES = [
    "expected-discarded",
    "pool-escape",
    "shard-race",
    "snapshot-field-coverage",
]

ALLOW_RE = re.compile(r"vmat-analyze:\s*allow\(([^)]*)\)")
ALLOW_FILE_RE = re.compile(r"vmat-analyze:\s*allow-file\(([^)]*)\)")

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_INFRA = 2
EXIT_UNAVAILABLE = 3


# --------------------------------------------------------------------------
# libclang loading. Auto-gated: a missing `clang` module or an unloadable
# libclang shared object yields (None, reason) and the caller exits 3.
# --------------------------------------------------------------------------

def _libclang_candidates(explicit: str | None) -> list[str]:
    candidates: list[str] = []
    if explicit:
        candidates.append(explicit)
    env = os.environ.get("VMAT_LIBCLANG")
    if env:
        candidates.append(env)
    patterns = [
        "/usr/lib/llvm-*/lib/libclang.so*",
        "/usr/lib/llvm-*/lib/libclang-*.so*",
        "/usr/lib/*/libclang.so*",
        "/usr/lib/*/libclang-*.so*",
        "/usr/local/lib/libclang*.so*",
        "/opt/homebrew/opt/llvm/lib/libclang.dylib",
        "/Library/Developer/CommandLineTools/usr/lib/libclang.dylib",
    ]
    for pat in patterns:
        candidates.extend(sorted(globmod.glob(pat), reverse=True))
    # libclang-cpp is the C++ monolith, not the C API the bindings need.
    return [c for c in candidates if "libclang-cpp" not in c]


def load_cindex(explicit: str | None):
    """Return (cindex_module, index, None) or (None, None, reason)."""
    try:
        from clang import cindex  # type: ignore[import-not-found]
    except ImportError as exc:
        return None, None, f"python clang bindings not importable: {exc}"
    try:
        return cindex, cindex.Index.create(), None
    except Exception:  # LibclangError: default soname not found
        pass
    for candidate in _libclang_candidates(explicit):
        try:
            cindex.Config.loaded = False
            cindex.Config.set_library_file(candidate)
            return cindex, cindex.Index.create(), None
        except Exception:
            continue
    return None, None, ("libclang shared library not loadable (tried the "
                        "default soname and the usual llvm install paths; "
                        "set VMAT_LIBCLANG or pass --libclang)")


# --------------------------------------------------------------------------
# Findings, suppressions, reporting.
# --------------------------------------------------------------------------

class Finding:
    __slots__ = ("path", "line", "column", "rule", "message")

    def __init__(self, path: str, line: int, column: int, rule: str,
                 message: str):
        self.path = path
        self.line = line
        self.column = column
        self.rule = rule
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}:{self.column}: [{self.rule}] " \
               f"{self.message}"


def _rule_list(spec: str) -> list[str]:
    return [r.strip() for r in spec.split(",") if r.strip()]


class Suppressions:
    """Per-file allow()/allow-file() lookup over raw source lines."""

    def __init__(self):
        self._cache: dict[str, tuple[set[str], dict[int, set[str]]]] = {}

    def _load(self, path: str):
        cached = self._cache.get(path)
        if cached is not None:
            return cached
        file_allows: set[str] = set()
        line_allows: dict[int, set[str]] = {}
        try:
            text = Path(path).read_text(encoding="utf-8", errors="replace")
        except OSError:
            text = ""
        for i, line in enumerate(text.split("\n"), start=1):
            for m in ALLOW_FILE_RE.finditer(line):
                file_allows.update(_rule_list(m.group(1)))
            for m in ALLOW_RE.finditer(line):
                line_allows.setdefault(i, set()).update(_rule_list(m.group(1)))
        self._cache[path] = (file_allows, line_allows)
        return self._cache[path]

    def allowed(self, path: str, rule: str, line: int) -> bool:
        file_allows, line_allows = self._load(path)
        if file_allows & {rule, "*"}:
            return True
        for candidate in (line, line - 1):
            if line_allows.get(candidate, set()) & {rule, "*"}:
                return True
        return False


class Reporter:
    """Deduplicates findings across TUs (a header is parsed once per
    includer), applies suppressions, and restricts findings to the
    requested roots."""

    def __init__(self, root: Path, scopes: list[Path], only: set[str] | None):
        self.root = root.resolve()
        self.scopes = [s.resolve() for s in scopes]
        self.only = only
        self.suppressions = Suppressions()
        self.findings: list[Finding] = []
        self.suppressed = 0
        self._seen: set[tuple[str, int, int, str, str]] = set()

    def in_scope(self, path: Path) -> bool:
        resolved = path.resolve()
        for scope in self.scopes:
            if resolved == scope:
                return True
            try:
                resolved.relative_to(scope)
                return True
            except ValueError:
                continue
        return False

    def rel(self, path: Path) -> str:
        try:
            return path.resolve().relative_to(self.root).as_posix()
        except ValueError:
            return path.resolve().as_posix()

    def report(self, location, rule: str, message: str) -> None:
        if self.only is not None and rule not in self.only:
            return
        if location is None or location.file is None:
            return
        path = Path(location.file.name)
        if not self.in_scope(path):
            return
        key = (self.rel(path), location.line, location.column, rule, message)
        if key in self._seen:
            return
        self._seen.add(key)
        if self.suppressions.allowed(str(path), rule, location.line):
            self.suppressed += 1
            return
        self.findings.append(Finding(key[0], location.line, location.column,
                                     rule, message))


# --------------------------------------------------------------------------
# AST helpers. Everything below runs only when libclang loaded, so cindex
# kinds are resolved lazily through the module handle.
# --------------------------------------------------------------------------

class Ast:
    """Thin facade over clang.cindex kinds + shared cursor utilities."""

    def __init__(self, cindex, root: Path):
        # cindex is None only under --self-check, which exercises the
        # kind-independent helpers (project_walk, in_project) with stubs.
        self.ci = cindex
        self.K = getattr(cindex, "CursorKind", None)
        self.root = root.resolve()
        self._root_str = str(self.root) + os.sep

    def in_project(self, cursor) -> bool:
        loc = cursor.location
        return (loc.file is not None
                and str(Path(loc.file.name).resolve())
                .startswith(self._root_str))

    def project_walk(self, tu_cursor):
        """Preorder walk skipping subtrees rooted outside the repo (system
        headers), which keeps the sweep fast and findings first-party.
        Yields every in-project cursor; the TU root itself is not yielded
        (it has no file and no rule matches it)."""
        stack = [tu_cursor]
        while stack:
            cur = stack.pop()
            if cur is not tu_cursor:
                yield cur
            for child in reversed(list(cur.get_children())):
                if child.location.file is None or self.in_project(child):
                    stack.append(child)

    def walk(self, cursor):
        for child in cursor.get_children():
            yield child
            yield from self.walk(child)

    @staticmethod
    def children(cursor):
        return list(cursor.get_children())

    @staticmethod
    def first_child(cursor):
        for child in cursor.get_children():
            return child
        return None

    def callee_name(self, call) -> str:
        ref = call.referenced
        if ref is not None and ref.spelling:
            return ref.spelling
        return call.spelling or ""

    def binary_op(self, cursor) -> str | None:
        """Operator token of a BINARY_OPERATOR (between its operands)."""
        ch = self.children(cursor)
        if len(ch) != 2:
            return None
        lhs_end = ch[0].extent.end.offset
        rhs_start = ch[1].extent.start.offset
        for tok in cursor.get_tokens():
            off = tok.location.offset
            if lhs_end <= off < rhs_start:
                return tok.spelling
        return None

    def unary_op(self, cursor) -> str | None:
        toks = list(cursor.get_tokens())
        if not toks:
            return None
        if toks[0].spelling in ("++", "--", "*", "&", "!", "-", "+", "~"):
            return toks[0].spelling
        return toks[-1].spelling

    def lambda_captures(self, lam):
        """Parse the capture list textually (cindex does not expose capture
        modes). Returns ({name: 'ref'|'val'}, default, captures_this)."""
        toks = [t.spelling for t in lam.get_tokens()]
        caps: dict[str, str] = {}
        default: str | None = None
        captures_this = False
        if not toks or toks[0] != "[":
            return caps, default, captures_this
        depth = 0
        entries: list[list[str]] = [[]]
        for tok in toks[1:]:
            if tok in ("[", "(", "{", "<"):
                depth += 1
            elif tok in (")", "}", ">"):
                depth = max(0, depth - 1)
            elif tok == "]":
                if depth == 0:
                    break
                depth -= 1
            if tok == "," and depth == 0:
                entries.append([])
            else:
                entries[-1].append(tok)
        for entry in entries:
            if not entry:
                continue
            if entry[0] == "&":
                if len(entry) == 1:
                    default = "ref"
                else:
                    caps[entry[1]] = "ref"
            elif entry[0] == "=":
                default = "val"
            elif entry[0] == "this" or entry[:2] == ["*", "this"]:
                captures_this = True
            else:
                caps[entry[0]] = "val"
        return caps, default, captures_this

    def declared_within(self, decl, extent) -> bool:
        loc = decl.location
        if loc.file is None or extent.start.file is None:
            return False
        return (loc.file.name == extent.start.file.name
                and extent.start.offset <= loc.offset <= extent.end.offset)

    def is_global_decl(self, decl) -> bool:
        if decl is None:
            return False
        try:
            storage = decl.storage_class
        except Exception:
            storage = None
        if storage == self.ci.StorageClass.STATIC:
            return True
        parent = decl.semantic_parent
        return parent is not None and parent.kind in (
            self.K.TRANSLATION_UNIT, self.K.NAMESPACE)

    def resolve_base(self, expr):
        """Walk an lvalue/base-expression chain down to its root.
        Returns (root_kind, decl, indexed, methods) where root_kind is one
        of 'decl' | 'this' | 'member-of-this' | 'unknown', `indexed` is
        True when the chain passes through a subscript (operator[], at, or
        a real array subscript), and `methods` lists traversed call names."""
        K = self.K
        indexed = False
        methods: list[str] = []
        cur = expr
        for _ in range(64):
            if cur is None:
                return "unknown", None, indexed, methods
            k = cur.kind
            if k in (K.UNEXPOSED_EXPR, K.PAREN_EXPR, K.CSTYLE_CAST_EXPR,
                     K.CXX_STATIC_CAST_EXPR, K.CXX_CONST_CAST_EXPR,
                     K.CXX_REINTERPRET_CAST_EXPR, K.CXX_FUNCTIONAL_CAST_EXPR):
                cur = self.first_child(cur)
            elif k == K.ARRAY_SUBSCRIPT_EXPR:
                indexed = True
                cur = self.first_child(cur)
            elif k == K.MEMBER_REF_EXPR:
                ch = self.children(cur)
                if not ch:
                    return "member-of-this", cur.referenced, indexed, methods
                cur = ch[0]
            elif k == K.CALL_EXPR:
                name = self.callee_name(cur)
                if name in ("operator[]", "at"):
                    indexed = True
                else:
                    methods.append(name)
                nxt = self.first_child(cur)
                if nxt is None:
                    return "unknown", None, indexed, methods
                cur = nxt
            elif k == K.DECL_REF_EXPR:
                return "decl", cur.referenced, indexed, methods
            elif k == K.CXX_THIS_EXPR:
                return "this", None, indexed, methods
            elif k == K.UNARY_OPERATOR:
                cur = self.first_child(cur)
            else:
                return "unknown", None, indexed, methods
        return "unknown", None, indexed, methods

    def ref_captured_locals(self, lam) -> list[str]:
        """Names of enclosing-scope locals this lambda captures by
        reference (explicitly, or any local DeclRef under a `[&]`)."""
        caps, default, _ = self.lambda_captures(lam)
        named = [n for n, mode in caps.items() if mode == "ref"]
        if named or default != "ref":
            return named
        # Default-&: collect referenced enclosing locals by name.
        out: set[str] = set()
        body = None
        for child in lam.get_children():
            if child.kind == self.K.COMPOUND_STMT:
                body = child
        if body is None:
            return []
        for node in self.walk(body):
            if node.kind != self.K.DECL_REF_EXPR:
                continue
            decl = node.referenced
            if decl is None or decl.kind not in (self.K.VAR_DECL,
                                                 self.K.PARM_DECL):
                continue
            if self.declared_within(decl, lam.extent):
                continue
            if self.is_global_decl(decl):
                continue
            out.add(decl.spelling)
        return sorted(out)


# --------------------------------------------------------------------------
# Rule: shard-race
# --------------------------------------------------------------------------

SHARD_ENTRY_POINTS = {"for_each_shard"}
# Methods documented safe for concurrent per-node use inside a shard (see
# DESIGN.md "Level-parallel phase drivers"): distinct-node inbox drains,
# batched receive, and the per-shard trace handle accessor.
SHARD_SAFE_METHODS = {"take_inbox", "receive_valid", "shard"}
ASSIGN_OPS = {"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
              "<<=", ">>="}
# Non-mutating / value-returning operators that show up as non-const
# method calls but are reads or produce copies on the access path.
NONMUTATING_OPERATORS = {"operator[]", "operator*", "operator->", "at",
                         "operator bool", "begin", "end", "data", "get"}


def rule_shard_race(ast: Ast, tu_cursor, reporter: Reporter) -> None:
    K = ast.K
    for cursor in ast.project_walk(tu_cursor):
        if cursor.kind != K.CALL_EXPR:
            continue
        if ast.callee_name(cursor) not in SHARD_ENTRY_POINTS:
            continue
        for arg in ast.children(cursor):
            lam = _find_lambda(ast, arg)
            if lam is not None:
                _check_shard_lambda(ast, lam, reporter)


def _find_lambda(ast: Ast, cursor):
    if cursor.kind == ast.K.LAMBDA_EXPR:
        return cursor
    for node in ast.walk(cursor):
        if node.kind == ast.K.LAMBDA_EXPR:
            return node
    return None


def _node_key(cursor):
    loc = cursor.extent.start
    return (str(cursor.kind), loc.file.name if loc.file else "",
            loc.offset, cursor.extent.end.offset)


def _check_shard_lambda(ast: Ast, lam, reporter: Reporter) -> None:
    K = ast.K
    caps, default, _captures_this = ast.lambda_captures(lam)
    extent = lam.extent
    body = None
    for child in lam.get_children():
        if child.kind == K.COMPOUND_STMT:
            body = child
    if body is None:
        return

    # Expression statements: non-const calls here (or void-returning ones
    # anywhere) are mutations-for-effect. Non-const calls whose result
    # feeds a larger expression are reference-returning accessors
    # (revocation(), fabric(), ...) — the outer expression is the one that
    # mutates, and it is judged on its own.
    stmt_keys: set = set()
    for node in [body, *ast.walk(body)]:
        if node.kind != K.COMPOUND_STMT:
            continue
        for stmt in node.get_children():
            expr = _unwrap(ast, stmt)
            if expr is not None:
                stmt_keys.add(_node_key(expr))

    def classify_write(target, what: str, via: str) -> None:
        root_kind, decl, indexed, _methods = ast.resolve_base(target)
        if indexed:
            return  # per-node / per-shard slot discipline
        if root_kind in ("this", "member-of-this"):
            reporter.report(target.location, "shard-race",
                            f"{what} via captured `this` inside a shard "
                            f"worker ({via}) — member state is shared "
                            "across shards; index into a per-shard or "
                            "per-node slot instead")
            return
        if root_kind != "decl" or decl is None:
            return
        if decl.kind not in (K.VAR_DECL, K.PARM_DECL):
            return
        name = decl.spelling
        if ast.is_global_decl(decl):
            try:
                if decl.type.is_const_qualified():
                    return
            except Exception:
                pass
            reporter.report(target.location, "shard-race",
                            f"{what} to global/static `{name}` from a "
                            f"shard worker ({via}) — every shard races on "
                            "it; make it per-shard state merged after the "
                            "join")
            return
        if ast.declared_within(decl, extent):
            return  # shard-local
        mode = caps.get(name, default)
        if mode == "ref":
            reporter.report(
                target.location, "shard-race",
                f"{what} to by-reference capture `{name}` inside a shard "
                f"worker ({via}) is not indexed by the shard's id range — "
                "shards race on the shared object; write into a per-shard "
                "slot and merge serially after the join")

    for node in ast.walk(body):
        kind = node.kind
        if kind == K.COMPOUND_ASSIGNMENT_OPERATOR:
            ch = ast.children(node)
            if ch:
                classify_write(ch[0], "write", "compound assignment")
        elif kind == K.BINARY_OPERATOR:
            if ast.binary_op(node) == "=":
                ch = ast.children(node)
                if ch:
                    classify_write(ch[0], "write", "assignment")
        elif kind == K.UNARY_OPERATOR:
            if ast.unary_op(node) in ("++", "--"):
                child = ast.first_child(node)
                if child is not None:
                    classify_write(child, "write", "increment/decrement")
        elif kind == K.CALL_EXPR:
            method = node.referenced
            if method is None or method.kind != K.CXX_METHOD:
                continue
            if method.is_const_method():
                continue
            name = method.spelling
            if name in SHARD_SAFE_METHODS or name in NONMUTATING_OPERATORS:
                continue
            try:
                returns_void = (method.result_type.get_canonical()
                                .spelling == "void")
            except Exception:
                returns_void = False
            if not returns_void and _node_key(node) not in stmt_keys:
                continue  # reference-returning accessor feeding a larger expr
            ch = ast.children(node)
            if not ch:
                continue
            # Operator-syntax calls (operator=, operator+=) lead with a ref
            # to the operator function; the written-to operand is next.
            base = ch[0]
            if name.startswith("operator") and len(ch) >= 2:
                base = ch[1]
            classify_write(base, f"non-const call `{name}()`",
                           "mutating method")


# --------------------------------------------------------------------------
# Rule: snapshot-field-coverage
# --------------------------------------------------------------------------

SNAPSHOT_PAIRS = [("snapshot_save", "snapshot_load"),
                  ("capture_snapshot", "restore_snapshot")]
_PAIR_NAMES = {n for pair in SNAPSHOT_PAIRS for n in pair}


def rule_snapshot_field_coverage(ast: Ast, tu_cursor,
                                 reporter: Reporter) -> None:
    K = ast.K
    classes: dict[str, dict] = {}
    defs: dict[tuple[str, str], object] = {}
    for cursor in ast.project_walk(tu_cursor):
        if cursor.kind in (K.CLASS_DECL, K.STRUCT_DECL) \
                and cursor.is_definition():
            usr = cursor.get_usr()
            if not usr or usr in classes:
                continue
            fields = {}
            methods = set()
            for child in cursor.get_children():
                if child.kind == K.FIELD_DECL:
                    fields[child.get_usr()] = child
                elif child.kind == K.CXX_METHOD:
                    methods.add(child.spelling)
            classes[usr] = {"cursor": cursor, "fields": fields,
                            "methods": methods, "name": cursor.spelling}
        elif cursor.kind == K.CXX_METHOD and cursor.is_definition() \
                and cursor.spelling in _PAIR_NAMES:
            parent = cursor.semantic_parent
            if parent is not None:
                defs[(parent.get_usr(), cursor.spelling)] = cursor

    for usr, info in classes.items():
        for save_name, load_name in SNAPSHOT_PAIRS:
            if save_name not in info["methods"] \
                    or load_name not in info["methods"]:
                continue
            save_def = defs.get((usr, save_name))
            load_def = defs.get((usr, load_name))
            if save_def is None or load_def is None:
                break  # bodies not visible in this TU; another TU has them
            touched: set[str] = set()
            for body in (save_def, load_def):
                for node in ast.walk(body):
                    if node.kind != K.MEMBER_REF_EXPR:
                        continue
                    ref = node.referenced
                    if ref is None or ref.kind != K.FIELD_DECL:
                        continue
                    parent = ref.semantic_parent
                    if parent is not None and parent.get_usr() == usr:
                        touched.add(ref.get_usr())
            for field_usr, field in sorted(info["fields"].items()):
                if field_usr in touched:
                    continue
                reporter.report(
                    field.location, "snapshot-field-coverage",
                    f"data member `{field.spelling}` of `{info['name']}` "
                    f"is never referenced by {save_name}()/{load_name}() — "
                    "a fork restores stale state for it; copy it or "
                    "annotate the deliberate exclusion")
            break


# --------------------------------------------------------------------------
# Rule: expected-discarded
# --------------------------------------------------------------------------

EXPECTED_TYPE_RE = re.compile(r"\b(?:Expected<|Status\b|Error\b)")


def _is_expected_type(type_obj) -> bool:
    if type_obj is None:
        return False
    try:
        spellings = (type_obj.spelling, type_obj.get_canonical().spelling)
    except Exception:
        return False
    return any(EXPECTED_TYPE_RE.search(s or "") for s in spellings)


def _unwrap(ast: Ast, cursor):
    K = ast.K
    while cursor is not None and cursor.kind in (K.UNEXPOSED_EXPR,
                                                 K.PAREN_EXPR):
        cursor = ast.first_child(cursor)
    return cursor


def rule_expected_discarded(ast: Ast, tu_cursor, reporter: Reporter) -> None:
    K = ast.K
    for cursor in ast.project_walk(tu_cursor):
        kind = cursor.kind
        if kind == K.COMPOUND_STMT:
            for stmt in cursor.get_children():
                expr = _unwrap(ast, stmt)
                if expr is None or expr.kind != K.CALL_EXPR:
                    continue
                if _is_expected_type(expr.type):
                    reporter.report(
                        stmt.location, "expected-discarded",
                        f"result of `{ast.callee_name(expr)}()` "
                        f"({expr.type.spelling}) is discarded — handle the "
                        "value or propagate the error")
        elif kind in (K.CSTYLE_CAST_EXPR, K.CXX_STATIC_CAST_EXPR,
                      K.CXX_FUNCTIONAL_CAST_EXPR):
            try:
                is_void = cursor.type.kind == ast.ci.TypeKind.VOID
            except Exception:
                is_void = False
            if not is_void:
                continue
            inner = None
            for child in cursor.get_children():
                inner = child
            inner = _unwrap(ast, inner)
            if inner is not None and _is_expected_type(inner.type):
                reporter.report(
                    cursor.location, "expected-discarded",
                    f"an {inner.type.spelling} result is (void)-cast away "
                    "— the error code is silently dropped; handle it or "
                    "annotate why it cannot fail here")
        elif kind == K.IF_STMT:
            _check_dropped_error_return(ast, cursor, reporter)


def _check_dropped_error_return(ast: Ast, if_stmt, reporter: Reporter):
    K = ast.K
    ch = ast.children(if_stmt)
    if len(ch) < 2:
        return
    cond, then_branch = ch[0], ch[1]
    else_branch = ch[2] if len(ch) > 2 else None
    var = None
    for node in [cond, *ast.walk(cond)]:
        if node.kind == K.DECL_REF_EXPR:
            decl = node.referenced
            if decl is not None and decl.kind in (K.VAR_DECL, K.PARM_DECL) \
                    and _is_expected_type(decl.type):
                var = decl
                break
    if var is None:
        return
    bangs = sum(1 for t in cond.get_tokens() if t.spelling == "!")
    error_branch = then_branch if bangs % 2 == 1 else else_branch
    if error_branch is None:
        return
    var_key = (var.location.file.name if var.location.file else "",
               var.location.offset)
    consults = False
    has_value_return = False
    return_loc = None
    for node in [error_branch, *ast.walk(error_branch)]:
        if node.kind == K.DECL_REF_EXPR:
            decl = node.referenced
            if decl is not None and decl.location.file is not None and \
                    (decl.location.file.name, decl.location.offset) == var_key:
                consults = True
        elif node.kind == K.RETURN_STMT:
            if ast.first_child(node) is not None:
                has_value_return = True
                if return_loc is None:
                    return_loc = node.location
    if has_value_return and not consults:
        reporter.report(
            return_loc, "expected-discarded",
            f"error path returns a fresh value without consulting "
            f"`{var.spelling}.error()` — the underlying error code is "
            "dropped; propagate it or fold it into the new error")


# --------------------------------------------------------------------------
# Rule: pool-escape
# --------------------------------------------------------------------------

THREADY_NAMES = {"thread", "jthread", "async"}
STORE_CALLS = {"push_back", "emplace_back", "operator=", "assign"}


def rule_pool_escape(ast: Ast, tu_cursor, reporter: Reporter) -> None:
    K = ast.K
    for cursor in ast.project_walk(tu_cursor):
        kind = cursor.kind
        if kind == K.RETURN_STMT:
            lam = _find_lambda_arg(ast, cursor)
            if lam is not None:
                names = ast.ref_captured_locals(lam)
                if names:
                    reporter.report(
                        lam.location, "pool-escape",
                        "returned callable captures "
                        f"{_fmt_names(names)} by reference — the frame "
                        "that owns them is gone when the task runs; "
                        "capture by value or pass owned state")
        elif kind == K.CALL_EXPR:
            name = ast.callee_name(cursor)
            ref = cursor.referenced
            is_thready = name in THREADY_NAMES or (
                ref is not None and ref.kind == K.CONSTRUCTOR
                and ref.semantic_parent is not None
                and ref.semantic_parent.spelling in THREADY_NAMES)
            if is_thready:
                lam = _find_lambda_arg(ast, cursor)
                if lam is not None:
                    names = ast.ref_captured_locals(lam)
                    if names:
                        reporter.report(
                            lam.location, "pool-escape",
                            f"task handed to `{name}` captures "
                            f"{_fmt_names(names)} by reference — an async "
                            "task's lifetime is not bounded by this frame; "
                            "only the synchronous pool entry points "
                            "(for_each/parallel_for_trials/for_each_shard) "
                            "join before returning")
                continue
            if name in STORE_CALLS:
                _check_stored_task(ast, cursor, reporter)
        elif kind == K.VAR_DECL and ast.is_global_decl(cursor):
            lam = _find_lambda_arg(ast, cursor)
            if lam is not None:
                names = ast.ref_captured_locals(lam)
                if names:
                    reporter.report(
                        lam.location, "pool-escape",
                        f"global/static `{cursor.spelling}` stores a "
                        f"callable capturing {_fmt_names(names)} by "
                        "reference — it outlives every frame")


def _find_lambda_arg(ast: Ast, cursor):
    for node in ast.walk(cursor):
        if node.kind == ast.K.LAMBDA_EXPR:
            return node
    return None


def _fmt_names(names: list[str]) -> str:
    return ", ".join(f"`{n}`" for n in names)


def _check_stored_task(ast: Ast, call, reporter: Reporter) -> None:
    K = ast.K
    ch = ast.children(call)
    if len(ch) < 2:
        return
    # Dot-syntax calls lead with the member-ref callee (whose child is the
    # object); operator-syntax calls (CXXOperatorCallExpr) lead with a bare
    # ref to the operator function, then the operands — skip that ref so
    # the store target is the LHS, not the callee.
    target_idx = 0
    rk0, decl0, _i0, _m0 = ast.resolve_base(ch[0])
    if rk0 == "decl" and decl0 is not None and decl0.kind in (
            K.CXX_METHOD, K.FUNCTION_DECL, K.FUNCTION_TEMPLATE):
        target_idx = 1
    if len(ch) <= target_idx + 1:
        return
    lam = None
    for arg in ch[target_idx + 1:]:
        lam = _find_lambda_arg(ast, arg)
        if lam is not None:
            break
    if lam is None:
        return
    names = ast.ref_captured_locals(lam)
    if not names:
        return
    root_kind, decl, _indexed, _methods = ast.resolve_base(ch[target_idx])
    escapes = root_kind in ("this", "member-of-this") or (
        root_kind == "decl" and ast.is_global_decl(decl))
    if escapes:
        target = decl.spelling if decl is not None else "member state"
        reporter.report(
            lam.location, "pool-escape",
            f"task stored into `{target}` (member/global scope) captures "
            f"{_fmt_names(names)} by reference — the store outlives the "
            "frame that owns the captures; capture by value")


RULES = {
    "expected-discarded": rule_expected_discarded,
    "pool-escape": rule_pool_escape,
    "shard-race": rule_shard_race,
    "snapshot-field-coverage": rule_snapshot_field_coverage,
}


# --------------------------------------------------------------------------
# Compilation database / argument handling.
# --------------------------------------------------------------------------

_DROP_ARGS = {"-c", "-MMD", "-MD", "-MP", "-fcolor-diagnostics",
              "-fdiagnostics-color=always"}


def _is_source_operand(arg: str, directory: str, path: Path) -> bool:
    """True iff `arg` is the TU's own source-file operand. Compares
    resolved paths (relative args resolve against the command's working
    directory) so an unrelated argument that merely shares the basename
    — e.g. a -include operand from another directory — is kept."""
    if arg.startswith("-"):
        return False
    cand = Path(arg)
    if not cand.is_absolute():
        cand = Path(directory) / cand
    try:
        return cand.resolve() == path
    except OSError:
        return False


def args_for(cindex, compdb, path: Path, fallback: list[str]) -> list[str]:
    if compdb is not None:
        try:
            commands = compdb.getCompileCommands(str(path))
        except Exception:
            commands = None
        if commands:
            cmd = commands[0]
            raw = list(cmd.arguments)
            directory = str(cmd.directory)
            out: list[str] = []
            skip_next = False
            for arg in raw[1:]:  # raw[0] is the compiler
                if skip_next:
                    skip_next = False
                    continue
                if arg in ("-o", "-MF", "-MT", "-MQ", "--output"):
                    skip_next = True
                    continue
                if arg in _DROP_ARGS \
                        or _is_source_operand(arg, directory, path):
                    continue
                out.append(arg)
            return out
    return fallback


def collect_tus(root: Path, specs: list[str]) -> list[Path]:
    files: list[Path] = []
    seen: set[Path] = set()
    for spec in specs:
        p = Path(spec) if Path(spec).is_absolute() else root / spec
        if p.is_file():
            candidates = [p]
        elif p.is_dir():
            candidates = sorted(q for q in p.rglob("*")
                                if q.is_file()
                                and q.suffix in CXX_TU_SUFFIXES)
        else:
            raise FileNotFoundError(spec)
        for q in candidates:
            q = q.resolve()
            if q not in seen:
                seen.add(q)
                files.append(q)
    return files


# --------------------------------------------------------------------------
# Binding-free self-check. The AST rules only execute where libclang is
# importable, so a pure-Python regression in the shared walking / compdb
# helpers would otherwise be masked by SKIP on machines without bindings.
# --self-check exercises them against stub cursors and a stub compilation
# database; the ctest suite runs it unconditionally.
# --------------------------------------------------------------------------

def _self_check(root: Path) -> int:
    import inspect
    import types

    failures: list[str] = []

    def expect(cond: bool, msg: str) -> None:
        if not cond:
            failures.append(msg)

    def cursor(name: str, file: str | None, *children):
        loc = types.SimpleNamespace(
            file=None if file is None else types.SimpleNamespace(name=file))
        return types.SimpleNamespace(
            spelling=name, location=loc,
            get_children=lambda kids=tuple(children): list(kids))

    ast = Ast(None, root)
    expect(inspect.isgeneratorfunction(Ast.project_walk),
           "project_walk must be a generator (every rule iterates it)")
    inside = str(root / "a.cpp")
    tu = cursor(
        "tu", None,
        cursor("a", inside,
               cursor("a1", inside), cursor("a2", inside)),
        cursor("sys", "/usr/include/x.h",
               cursor("sys1", "/usr/include/x.h")),
        cursor("b", str(root / "sub" / "b.cpp")))
    walked = [c.spelling for c in ast.project_walk(tu)]
    expect(walked == ["a", "a1", "a2", "b"],
           f"project_walk preorder/pruning wrong: {walked}")

    # args_for drops exactly the TU's own source operand (absolute or
    # relative to the command's directory); a same-basename file elsewhere
    # (-include operand below) and ordinary flags survive.
    src = (root / "sub" / "foo.cpp").resolve()
    command = types.SimpleNamespace(
        filename=str(src), directory=str(root / "build"),
        arguments=["c++", "-c", "-Ipublic", "-include",
                   "/elsewhere/foo.cpp", "-o", "foo.o", "../sub/foo.cpp"])
    compdb = types.SimpleNamespace(getCompileCommands=lambda _p: [command])
    got = args_for(None, compdb, src, ["fallback"])
    expect(got == ["-Ipublic", "-include", "/elsewhere/foo.cpp"],
           f"args_for filtered wrong: {got}")

    for msg in failures:
        print(f"vmat-analyze: self-check: {msg}", file=sys.stderr)
    if failures:
        return EXIT_INFRA
    print("vmat-analyze: self-check OK")
    return EXIT_CLEAN


# --------------------------------------------------------------------------
# Driver.
# --------------------------------------------------------------------------

def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(
        prog="vmat-analyze",
        description="libclang semantic analyzer: shard races, snapshot "
                    "field coverage, error discipline, task escapes.")
    ap.add_argument("paths", nargs="*",
                    help="files or directories relative to --root "
                         "(default: src)")
    ap.add_argument("--root", default=".", help="repository root")
    ap.add_argument("-p", dest="build_dir", default=None,
                    help="build dir containing compile_commands.json "
                         "(default: <root>/build, else the repo-root "
                         "symlink; self-contained fixtures parse without)")
    ap.add_argument("--only", action="append", default=[],
                    help="run only this rule (repeatable, comma-splittable)")
    ap.add_argument("--list-rules", action="store_true",
                    help="print rule names (sorted) and exit")
    ap.add_argument("--json", dest="json_path", default=None,
                    help="write a JSON report here ('-' for stdout)")
    ap.add_argument("--libclang", default=None,
                    help="explicit libclang shared-object path")
    ap.add_argument("--probe", action="store_true",
                    help="exit 0 if libclang is usable, 3 if not")
    ap.add_argument("--self-check", action="store_true",
                    help="run binding-free unit checks of the shared "
                         "helpers (no libclang needed) and exit")
    ap.add_argument("--skip-unavailable", action="store_true",
                    help="exit 0 instead of 3 when libclang is missing "
                         "(for build targets that must not fail on "
                         "machines without it; CI probes explicitly)")
    ap.add_argument("--std", default="c++20",
                    help="fallback -std= when a file is not in the "
                         "compilation database (default: c++20)")
    args = ap.parse_args(argv)

    if args.list_rules:
        for name in sorted(RULES):
            print(name)
        return EXIT_CLEAN

    if args.self_check:
        return _self_check(Path(args.root).resolve())

    only = set()
    for spec in args.only:
        only.update(_rule_list(spec))
    unknown = only - set(RULES)
    if unknown:
        print("vmat-analyze: unknown rule(s): "
              + ", ".join(sorted(unknown)), file=sys.stderr)
        return EXIT_INFRA

    cindex, index, reason = load_cindex(args.libclang)
    if cindex is None:
        print(f"vmat-analyze: unavailable — {reason}", file=sys.stderr)
        return EXIT_CLEAN if args.skip_unavailable else EXIT_UNAVAILABLE
    if args.probe:
        print("vmat-analyze: libclang OK")
        return EXIT_CLEAN

    root = Path(args.root)
    if not root.is_dir():
        print(f"vmat-analyze: --root is not a directory: {root}",
              file=sys.stderr)
        return EXIT_INFRA
    root = root.resolve()

    compdb = None
    compdb_dir = None
    for candidate in ([args.build_dir] if args.build_dir
                      else [root / "build", root]):
        if candidate is None:
            continue
        candidate = Path(candidate)
        if (candidate / "compile_commands.json").is_file():
            compdb_dir = candidate
            break
    if args.build_dir and compdb_dir is None:
        print(f"vmat-analyze: no compile_commands.json in {args.build_dir} "
              "(configure CMake first, or build the `compile_db` target)",
              file=sys.stderr)
        return EXIT_INFRA
    if compdb_dir is not None:
        try:
            compdb = cindex.CompilationDatabase.fromDirectory(str(compdb_dir))
        except Exception as exc:
            print(f"vmat-analyze: broken compilation database in "
                  f"{compdb_dir}: {exc}", file=sys.stderr)
            return EXIT_INFRA

    specs = args.paths or ["src"]
    try:
        tus = collect_tus(root, specs)
    except FileNotFoundError as exc:
        print(f"vmat-analyze: no such path: {exc}", file=sys.stderr)
        return EXIT_INFRA
    if not tus:
        print("vmat-analyze: no translation units under: "
              + " ".join(specs), file=sys.stderr)
        return EXIT_INFRA

    scopes = [(Path(s) if Path(s).is_absolute() else root / s)
              for s in specs]
    reporter = Reporter(root, scopes, only or None)
    ast = Ast(cindex, root)
    fallback = ["-x", "c++", f"-std={args.std}", "-I", str(root / "src")]

    parse_errors: list[str] = []
    rule_errors: list[str] = []
    for path in tus:
        tu_args = args_for(cindex, compdb, path, fallback)
        try:
            tu = index.parse(str(path), args=tu_args)
        except cindex.TranslationUnitLoadError as exc:
            parse_errors.append(f"{path}: {exc}")
            continue
        hard = [d for d in tu.diagnostics
                if d.severity >= cindex.Diagnostic.Error]
        if hard:
            first = hard[0]
            where = (f"{first.location.file.name}:{first.location.line}"
                     if first.location.file else str(path))
            parse_errors.append(f"{path}: {len(hard)} parse error(s), "
                                f"first: {where}: {first.spelling}")
            continue
        for name, rule in sorted(RULES.items()):
            if only and name not in only:
                continue
            # A rule that throws is an analyzer bug, not a finding: record
            # it and exit EXIT_INFRA so exit-code consumers never mistake a
            # crash for "findings reported" (mirrors parse-error handling).
            try:
                rule(ast, tu.cursor, reporter)
            except Exception as exc:
                rule_errors.append(f"{path}: rule {name} crashed: "
                                   f"{type(exc).__name__}: {exc}")

    reporter.findings.sort(key=lambda f: (f.path, f.line, f.column, f.rule))

    if args.json_path:
        counts: dict[str, int] = {}
        for f in reporter.findings:
            counts[f.rule] = counts.get(f.rule, 0) + 1
        report = {
            "schema": "vmat-analyze/1",
            "root": str(root),
            "paths": specs,
            "translation_units": len(tus),
            "parse_errors": parse_errors,
            "rule_errors": rule_errors,
            "suppressed": reporter.suppressed,
            "counts": counts,
            "findings": [{"file": f.path, "line": f.line,
                          "column": f.column, "rule": f.rule,
                          "message": f.message}
                         for f in reporter.findings],
        }
        blob = json.dumps(report, indent=2, sort_keys=True)
        if args.json_path == "-":
            print(blob)
        else:
            Path(args.json_path).write_text(blob + "\n", encoding="utf-8")

    for f in reporter.findings:
        print(f)

    if parse_errors:
        for err in parse_errors:
            print(f"vmat-analyze: {err}", file=sys.stderr)
        print(f"vmat-analyze: {len(parse_errors)} translation unit(s) "
              "failed to parse — findings would be unreliable",
              file=sys.stderr)
        return EXIT_INFRA
    if rule_errors:
        for err in rule_errors:
            print(f"vmat-analyze: {err}", file=sys.stderr)
        print(f"vmat-analyze: {len(rule_errors)} internal rule error(s) "
              "— findings would be incomplete", file=sys.stderr)
        return EXIT_INFRA
    if reporter.findings:
        print(f"vmat-analyze: {len(reporter.findings)} finding(s) "
              f"({reporter.suppressed} suppressed)", file=sys.stderr)
        return EXIT_FINDINGS
    return EXIT_CLEAN


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
