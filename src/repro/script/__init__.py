"""Reconfiguration script language (the FScript substitute).

Public surface::

    from repro.script import parse, render, ScriptInterpreter, script_from_diff

    script = parse('transition "t" { stop ftm/syncBefore; ... }')
    yield from ScriptInterpreter(runtime).execute(script, package)
"""

from repro.script.ast import (
    Add,
    Demote,
    Path,
    Promote,
    Remove,
    SetProperty,
    Start,
    Statement,
    Stop,
    TransitionScript,
    UnwireStmt,
    WireStmt,
    render,
)
from repro.script.errors import (
    RollbackFailed,
    ScriptError,
    ScriptException,
    ScriptSyntaxError,
)
from repro.script.generate import script_from_diff
from repro.script.interpreter import ScriptInterpreter
from repro.script.parser import parse
from repro.script.tokens import Token, TokenKind, tokenize
from repro.script.validate import validate_script

__all__ = [
    "Add",
    "Demote",
    "Path",
    "Promote",
    "Remove",
    "SetProperty",
    "Start",
    "Statement",
    "Stop",
    "TransitionScript",
    "UnwireStmt",
    "WireStmt",
    "render",
    "RollbackFailed",
    "ScriptError",
    "ScriptException",
    "ScriptSyntaxError",
    "script_from_diff",
    "ScriptInterpreter",
    "parse",
    "Token",
    "TokenKind",
    "tokenize",
    "validate_script",
]
