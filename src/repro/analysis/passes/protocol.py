"""*protocol-conformance*: the wire protocol's two invariants.

FanStore's request/reply protocol is convention, not schema: requests
are ``(kind, body)`` tuples on a well-known tag (``TAG_DAEMON``,
``TAG_MEMBER``), dispatched by string-matching ``kind`` in a serve
loop, and every daemon request body is a typed
``Request(...).encode()`` envelope (see :mod:`repro.fanstore.wire`).
This pass recovers the protocol from the AST and checks:

1. every ``kind`` emitted on a tag has a matching dispatch arm in that
   tag's serve loop (an unhandled kind hangs the sender forever — the
   reply never comes);
2. every wire body a request helper builds is a ``Request(...)``
   envelope carrying an ``epoch=`` fencing token. An envelope without
   the token sends mutations the server can never fence as stale
   (split-brain protection silently dropped), and a positional tuple
   body is one the server rejects as malformed.

Recognised idioms: a *dispatcher* is any method that calls
``recv``/``try_recv`` with a ``TAG_<NAME>`` constant; its handled kinds
are the string literals compared against a name inside it. A *request
helper* is a method that sends ``(param, ...)`` on a tag, where
``param`` is one of its own parameters — calls to it with a literal
first argument emit that literal as a kind. A wire body is an
*envelope* when it is a call to a constructor named ``Request``, and a
*positional body* when it is a tuple literal holding a ``*reply_tag``
name.
"""

from __future__ import annotations

import ast
import re
from typing import Iterable

from repro.analysis.core import Finding, LintPass, Project, SourceFile

_TAG_RE = re.compile(r"^TAG_[A-Z_0-9]+$")


def _terminal_name(node: ast.expr) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _tag_of(node: ast.expr) -> str | None:
    name = _terminal_name(node)
    if name is not None and _TAG_RE.match(name):
        return name
    return None


def _recv_tag(call: ast.Call) -> str | None:
    """The TAG_* constant a ``recv``/``try_recv`` call listens on."""
    fn = call.func
    if not (isinstance(fn, ast.Attribute) and fn.attr in ("recv", "try_recv")):
        return None
    for arg in call.args[1:2]:  # (source, tag, ...)
        return _tag_of(arg)
    return None


def _send_parts(call: ast.Call) -> tuple[ast.expr, str] | None:
    """For ``x.send(payload, dest, TAG_*)``: (payload, tag name)."""
    fn = call.func
    if not (isinstance(fn, ast.Attribute) and fn.attr == "send"):
        return None
    if len(call.args) < 3:
        return None
    tag = _tag_of(call.args[2])
    if tag is None:
        return None
    return call.args[0], tag


class _MethodInfo:
    def __init__(self, cls: str, node: ast.FunctionDef) -> None:
        self.cls = cls
        self.node = node
        self.params = {
            a.arg for a in list(node.args.args) + list(node.args.kwonlyargs)
        }


def _methods(tree: ast.Module) -> list[_MethodInfo]:
    out = []
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef):
            for item in cls.body:
                if isinstance(item, ast.FunctionDef):
                    out.append(_MethodInfo(cls.name, item))
    return out


class ProtocolConformancePass(LintPass):
    rule = "protocol-conformance"
    title = (
        "every emitted kind has a dispatch arm; request bodies are "
        "fenced Request envelopes"
    )

    def run(self, project: Project) -> Iterable[Finding]:
        findings: list[Finding] = []
        for src in project:
            if src.parse_error is not None:
                continue
            findings.extend(self._check_file(src))
        return findings

    def _check_file(self, src: SourceFile) -> list[Finding]:
        methods = _methods(src.tree)
        dispatchers: dict[str, _MethodInfo] = {}
        for m in methods:
            for node in ast.walk(m.node):
                if isinstance(node, ast.Call):
                    tag = _recv_tag(node)
                    if tag is not None:
                        dispatchers.setdefault(tag, m)

        # kind-forwarding request helpers: method sends (own param, ...) on a tag
        helpers: dict[str, str] = {}  # method name -> tag
        for m in methods:
            for node in ast.walk(m.node):
                if not isinstance(node, ast.Call):
                    continue
                parts = _send_parts(node)
                if parts is None:
                    continue
                payload, tag = parts
                if (
                    isinstance(payload, ast.Tuple)
                    and payload.elts
                    and isinstance(payload.elts[0], ast.Name)
                    and payload.elts[0].id in m.params
                ):
                    helpers.setdefault(m.node.name, tag)

        # emitted kinds: direct literal sends + literal calls to helpers
        emitted: dict[str, list[tuple[str, int]]] = {}
        for node in ast.walk(src.tree):
            if not isinstance(node, ast.Call):
                continue
            parts = _send_parts(node)
            if parts is not None:
                payload, tag = parts
                if (
                    isinstance(payload, ast.Tuple)
                    and payload.elts
                    and isinstance(payload.elts[0], ast.Constant)
                    and isinstance(payload.elts[0].value, str)
                ):
                    emitted.setdefault(tag, []).append(
                        (payload.elts[0].value, node.lineno)
                    )
                continue
            fn = node.func
            if (
                isinstance(fn, ast.Attribute)
                and fn.attr in helpers
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
            ):
                emitted.setdefault(helpers[fn.attr], []).append(
                    (node.args[0].value, node.lineno)
                )

        findings: list[Finding] = []

        # 1. every emitted kind must have a dispatch arm
        for tag, kinds in sorted(emitted.items()):
            dispatcher = dispatchers.get(tag)
            if dispatcher is None:
                continue  # replies / tags consumed without kind dispatch
            handled = self._handled_kinds(dispatcher.node)
            if not handled:
                continue  # receive loop without string dispatch
            for kind, lineno in kinds:
                if kind not in handled:
                    findings.append(
                        self.finding(
                            src,
                            lineno,
                            f"kind '{kind}' emitted on {tag} has no arm in "
                            f"{dispatcher.cls}.{dispatcher.node.name} "
                            f"(handles: {', '.join(sorted(handled))}); the "
                            "sender would wait forever",
                        )
                    )

        # 2. request helpers build only fenced Request envelopes
        for m in methods:
            if m.node.name in helpers:
                findings.extend(self._check_wire_body(src, m))
        return findings

    @staticmethod
    def _handled_kinds(fn: ast.FunctionDef) -> set[str]:
        handled: set[str] = set()
        for node in ast.walk(fn):
            if not isinstance(node, ast.Compare):
                continue
            if not isinstance(node.left, ast.Name):
                continue
            for op, comp in zip(node.ops, node.comparators):
                if isinstance(op, (ast.Eq, ast.NotEq)):
                    if isinstance(comp, ast.Constant) and isinstance(
                        comp.value, str
                    ):
                        handled.add(comp.value)
                elif isinstance(op, (ast.In, ast.NotIn)):
                    if isinstance(comp, (ast.Tuple, ast.List, ast.Set)):
                        for elt in comp.elts:
                            if isinstance(elt, ast.Constant) and isinstance(
                                elt.value, str
                            ):
                                handled.add(elt.value)
        return handled

    def _check_wire_body(
        self, src: SourceFile, helper: _MethodInfo
    ) -> list[Finding]:
        findings = []
        for node in ast.walk(helper.node):
            if (
                isinstance(node, ast.Call)
                and _terminal_name(node.func) == "Request"
            ):
                if not any(kw.arg == "epoch" for kw in node.keywords):
                    findings.append(
                        self.finding(
                            src,
                            node.lineno,
                            "request envelope built without an epoch= "
                            "fencing token; the server cannot reject this "
                            "request when it was decided under a stale "
                            "membership view",
                        )
                    )
            elif isinstance(node, ast.Tuple) and any(
                isinstance(e, ast.Name) and e.id.endswith("reply_tag")
                for e in node.elts
            ):
                findings.append(
                    self.finding(
                        src,
                        node.lineno,
                        f"positional wire body with {len(node.elts)} "
                        "fields; the server rejects it as malformed — "
                        "build a Request(...) envelope with epoch=",
                    )
                )
        return findings
