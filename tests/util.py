"""Shared test helpers."""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.bytecode.assembler import assemble
from repro.classfile.model import JClass, JField, JMethod
from repro.env.environment import Environment
from repro.minijava import compile_program
from repro.runtime.jvm import JVM, JVMConfig, RunResult
from repro.runtime.stdlib import default_natives, new_program_registry


def run_minijava(
    source: str,
    main_class: str = "Main",
    env: Optional[Environment] = None,
    config: Optional[JVMConfig] = None,
    seed: int = 0,
) -> Tuple[RunResult, JVM, Environment]:
    """Compile and run a MiniJava program on an unreplicated JVM."""
    env = env or Environment()
    registry = compile_program(source)
    cfg = config or JVMConfig(scheduler_seed=seed, max_instructions=20_000_000)
    jvm = JVM(registry, default_natives(), env.attach("test"), cfg)
    result = jvm.run(main_class)
    return result, jvm, env


def console_lines(env: Environment) -> List[str]:
    return env.console.lines()


def run_expect(source: str, *expected_lines: str, seed: int = 0) -> None:
    """Run a program and assert its console output matches exactly."""
    result, _, env = run_minijava(source, seed=seed)
    assert result.ok, f"uncaught: {result.uncaught}"
    assert console_lines(env) == list(expected_lines)


def run_asm_main(
    body: str,
    max_locals: int = 4,
    env: Optional[Environment] = None,
    extra_classes: Optional[List[JClass]] = None,
    config: Optional[JVMConfig] = None,
    exception_table: Optional[list] = None,
) -> Tuple[RunResult, JVM, Environment]:
    """Run hand-written assembly as ``Main.main``; ``exception_table``
    rows (:class:`ExceptionEntry`, numeric pcs) are attached to it."""
    env = env or Environment()
    registry = new_program_registry()
    main_cls = JClass("Main", "Object")
    code = assemble(body, max_locals=max_locals)
    code.exception_table.extend(exception_table or [])
    main_cls.add_method(JMethod("main", 0, False, code, is_static=True))
    registry.register(main_cls)
    for cls in extra_classes or []:
        registry.register(cls)
    cfg = config or JVMConfig(max_instructions=5_000_000)
    jvm = JVM(registry, default_natives(), env.attach("test"), cfg)
    result = jvm.run("Main")
    return result, jvm, env
