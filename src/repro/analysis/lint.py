"""Static lint over OpenCL C kernel sources and host-side bindings.

The checks target the host/kernel mismatch class the paper's curation
fought (§4.4): parameters the kernel never reads, writes through
``__constant`` memory, ``__local`` parameters fed from global buffers,
kernels that exist only on one side of the host/device boundary, and
barriers reached under thread-divergent control flow (undefined
behaviour on real devices, invisible in a sequential simulation).

No kernel executes.  Each source is parsed once by the kernel IR
frontend (:mod:`repro.analysis.frontend`) and the kernel-body checks
run on its typed AST and control-flow graph (:mod:`repro.analysis.cfg`),
so a name inside a comment or string literal is never a use and a
barrier's divergence is decided by control dependence, not by the
text around it.  The runtime complement lives in
:mod:`repro.analysis.sanitize`; the IR-only checks and the §4.4
working-set gate in :mod:`repro.analysis.deep`.
"""

from __future__ import annotations

from ..ocl.clsource import CLSourceError, kernel_suppressions
from ..ocl.memory import Buffer
from ..ocl.program import Program
from .cfg import divergent_barriers, stored_through, used_names
from .findings import Finding, suppressed
from .frontend import KernelDef, parse_source


# ---------------------------------------------------------------------------
def lint_cl_source(
    source: str,
    python_bodies: set[str] | None = None,
    benchmark: str | None = None,
) -> list[Finding]:
    """Lint one OpenCL C source string.

    ``python_bodies`` is the set of kernel names for which the program
    registered a Python body; ``__kernel`` functions outside it are
    flagged (a kernel shipped in ``.cl`` that the simulation never
    executes drifts silently).  A source the frontend cannot parse
    yields one ``build-failure`` finding.
    """
    try:
        program = parse_source(source)
    except CLSourceError as exc:
        return [Finding(
            check="build-failure", severity="error", benchmark=benchmark,
            message=f"OpenCL C source failed to parse: {exc}",
        )]
    suppressions = kernel_suppressions(source)
    findings: list[Finding] = []
    for kernel in program.kernels:
        findings.extend(_lint_kernel(
            kernel, suppressions.get(kernel.name, set()), benchmark,
            python_bodies,
        ))
    return findings


def _lint_kernel(
    kernel: KernelDef,
    allows: set,
    benchmark: str | None,
    python_bodies: set[str] | None,
) -> list[Finding]:
    name = kernel.name
    findings: list[Finding] = []

    if (
        python_bodies is not None
        and name not in python_bodies
        and not suppressed(allows, "missing-kernel-body")
    ):
        findings.append(Finding(
            check="missing-kernel-body", severity="warning",
            benchmark=benchmark, kernel=name,
            message="__kernel is declared in the OpenCL C source but the "
                    "program registers no Python body for it",
            hint="register a KernelSource of the same name, or drop the "
                 "kernel from the .cl source",
        ))

    uses = used_names(kernel)
    stores = stored_through(kernel)
    for index, param in enumerate(kernel.params):
        if (
            param.name not in uses
            and not suppressed(allows, "unused-param", param.name)
        ):
            findings.append(Finding(
                check="unused-param", severity="warning",
                benchmark=benchmark, kernel=name, argument=param.name,
                location=f"argument {index}",
                message=f"kernel parameter {param.name!r} is never used in "
                        "the kernel body",
                hint="remove the parameter (and its host-side set_arg) or "
                     "suppress with // repro-lint: allow(unused-param: "
                     f"{param.name})",
            ))
        if (
            param.is_pointer
            and param.address_space == "constant"
            and param.name in stores
            and not suppressed(allows, "constant-write", param.name)
        ):
            findings.append(Finding(
                check="constant-write", severity="error",
                benchmark=benchmark, kernel=name, argument=param.name,
                location=f"argument {index}",
                message=f"kernel writes through __constant pointer "
                        f"{param.name!r}",
                hint="move the parameter to __global, or drop the store",
            ))

    if not suppressed(allows, "barrier-divergence"):
        for line in divergent_barriers(kernel):
            findings.append(Finding(
                check="barrier-divergence", severity="warning",
                benchmark=benchmark, kernel=name, location=f"line {line}",
                message="barrier() is control-dependent on a branch whose "
                        "condition differs between work items; not all work "
                        "items of a group would reach it on a real device",
                hint="hoist the barrier out of the divergent branch",
            ))
    return findings


# ---------------------------------------------------------------------------
def lint_program(program: Program, benchmark: str | None = None) -> list[Finding]:
    """Lint every kernel of a built program plus its host bindings."""
    findings: list[Finding] = []
    python_bodies = set(program.kernel_names)
    seen_sources: set[str] = set()

    for src in program._sources:
        if src.cl_source is None:
            findings.append(Finding(
                check="missing-cl-source", severity="note",
                benchmark=benchmark, kernel=src.name,
                message="kernel has a Python body but carries no OpenCL C "
                        "source; signature checks cannot run",
                hint="attach the .cl text via KernelSource(cl_source=...)",
            ))
            continue
        if src.cl_source in seen_sources:
            continue  # several kernels sharing one .cl file
        seen_sources.add(src.cl_source)
        findings.extend(
            lint_cl_source(src.cl_source, python_bodies, benchmark)
        )

    findings.extend(_lint_bound_args(program, benchmark))
    return findings


def _lint_bound_args(program: Program, benchmark: str | None) -> list[Finding]:
    """Cross-check host-side ``set_args`` bindings against signatures.

    Scalar dtype mismatches raise at ``set_arg`` time; what remains to
    lint is address-space misuse the runtime tolerates, i.e. a
    ``__local`` pointer fed from a global :class:`Buffer` (real OpenCL
    passes only a *size* for ``__local`` parameters).
    """
    findings: list[Finding] = []
    for kernel in program._kernels:
        if kernel.signature is None or kernel._args is None:
            continue
        for index, param in enumerate(kernel.signature.params):
            if index >= len(kernel._args):
                break
            value = kernel._args[index]
            if (
                param.is_pointer
                and param.address_space == "local"
                and isinstance(value, Buffer)
            ):
                findings.append(Finding(
                    check="local-from-global", severity="error",
                    benchmark=benchmark, kernel=kernel.name,
                    argument=param.name, location=f"argument {index}",
                    message="a global Buffer is bound to a __local pointer "
                            "parameter; OpenCL passes __local arguments as a "
                            "size, not a buffer",
                    hint="bind the scratch size instead, or change the "
                         "parameter's address space",
                ))
    return findings
