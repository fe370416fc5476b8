#!/usr/bin/env python3
"""Tiny brute-force decision procedure for the emitted obligation fragment.

Stands in for an external bit-vector solver in tests: parses the SMT-LIB2
subset the bridge emits (Boolean constants, define-fun chains over ite,
bvadd, concat, =, not, binary bit-vector literals and indexed constants
``(_ bvN w)``), enumerates all input assignments, and prints sat/unsat plus a
model in the conventional define-fun format.  Deliberately independent of the
package under test; tests may call ``solve`` in-process.

Usage: minisolver.py FILE
"""

from __future__ import annotations

import sys

ENUM_CAP = 16  # max Booleans before giving up with "unknown"


def tokenize(text: str) -> list[str]:
    return text.replace("(", " ( ").replace(")", " ) ").split()


def parse_all(tokens: list[str]) -> list:
    """Every top-level form, read with an explicit stack: an obligation's
    target nests one ``concat`` per bit, deeper than Python's recursion
    limit at m in the thousands."""
    stack: list[list] = [[]]
    for tok in tokens:
        if tok == "(":
            stack.append([])
        elif tok == ")":
            if len(stack) == 1:
                raise SystemExit("minisolver: unbalanced parentheses")
            done = stack.pop()
            stack[-1].append(done)
        else:
            stack[-1].append(tok)
    if len(stack) != 1:
        raise SystemExit("minisolver: unbalanced parentheses")
    return stack[0]


class BitVec:
    __slots__ = ("value", "width")

    def __init__(self, value: int, width: int):
        self.value = value
        self.width = width


def evaluate(term, env):
    if isinstance(term, str):
        if term == "true":
            return True
        if term == "false":
            return False
        if term.startswith("#b"):
            return BitVec(int(term[2:], 2), len(term) - 2)
        return env[term]
    head = term[0]
    if head == "_" and term[1].startswith("bv"):
        width = int(term[2])
        return BitVec(int(term[1][2:]) % (1 << width), width)
    if head == "ite":
        return evaluate(term[2], env) if evaluate(term[1], env) else evaluate(term[3], env)
    if head == "bvadd":
        parts = [evaluate(t, env) for t in term[1:]]
        width = parts[0].width
        total = sum(p.value for p in parts) % (1 << width)
        return BitVec(total, width)
    if head == "concat":
        parts = [evaluate(t, env) for t in term[1:]]
        value, width = 0, 0
        for p in parts:
            value = (value << p.width) | p.value
            width += p.width
        return BitVec(value, width)
    if head == "=":
        a, b = evaluate(term[1], env), evaluate(term[2], env)
        if isinstance(a, BitVec):
            return a.width == b.width and a.value == b.value
        return a == b
    if head == "not":
        return not evaluate(term[1], env)
    raise SystemExit(f"minisolver: unsupported operator {head!r}")


def solve(text: str) -> str:
    """The verdict on one obligation, "sat" followed by a model when one is
    asked for, as printed (without the final newline)."""
    forms = parse_all(tokenize(text))
    bools: list[str] = []
    defs: list[tuple[str, list]] = []
    asserts: list = []
    want_model = False
    for form in forms:
        head = form[0]
        if head == "set-logic":
            continue
        if head == "declare-const":
            if form[2] != "Bool":
                raise SystemExit("minisolver: only Bool constants supported")
            bools.append(form[1])
        elif head == "define-fun":
            defs.append((form[1], form[4]))
        elif head == "assert":
            asserts.append(form[1])
        elif head == "check-sat":
            pass
        elif head == "get-model":
            want_model = True
        else:
            raise SystemExit(f"minisolver: unsupported command {head!r}")
    if len(bools) > ENUM_CAP:
        return "unknown"
    for mask in range(1 << len(bools)):
        env = {name: bool((mask >> k) & 1) for k, name in enumerate(bools)}
        for name, body in defs:
            env[name] = evaluate(body, env)
        if all(evaluate(a, env) for a in asserts):
            out = ["sat"]
            if want_model:
                out.append("(")
                for name in bools:
                    out.append(f"  (define-fun {name} () Bool {'true' if env[name] else 'false'})")
                out.append(")")
            return "\n".join(out)
    return "unsat"


def main() -> int:
    if len(sys.argv) != 2:
        print("usage: minisolver.py FILE", file=sys.stderr)
        return 2
    with open(sys.argv[1], encoding="utf-8") as handle:
        print(solve(handle.read()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
