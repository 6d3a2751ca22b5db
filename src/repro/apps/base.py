"""Common machinery for the test applications.

Every application follows the compiled-code execution model the paper's
injector assumes:

* numeric kernels are assembled for the virtual CPU and linked, together
  with static data/BSS objects and the MPI library blobs, into a
  Figure-1 process image;
* working arrays are ``malloc``'d from the simulated heap (tagged *user*);
* the descriptors of upcoming MPI calls - buffer pointers, counts, ranks,
  tags - live in **stack-resident locals** (:class:`StackLocals`), read
  back from simulated memory immediately before each call.  This is the
  paper's mechanism for stack faults becoming "MPI Detected": "the stack
  holds the arguments to function calls";
* each application registers a user MPI error handler (section 5.1: "we
  registered such a handler, and whenever the handler was invoked, the
  handler labeled the outcome as 'MPI detected'").
"""

from __future__ import annotations

from typing import Generator, Sequence

from repro.cpu.assembler import Program
from repro.cpu.isa import Insn, Op, encode
from repro.cpu.vm import VM, primed_decode_table
from repro.errors import MPIAbort
from repro.memory.process import ProcessImage
from repro.memory.symbols import Linker
from repro.mpi.library import add_mpi_library
from repro.mpi.simulator import JobConfig, RankContext


def register_error_handler(ctx: RankContext) -> None:
    """Install the campaign's 'MPI detected' labeller on COMM_WORLD."""

    def handler(comm, error):
        # The invocation itself is counted by the errhandler slot; the
        # handler prints a console label and aborts, as in the paper.
        ctx.print(f"MPI error handler: {error}")
        raise MPIAbort(f"user error handler invoked: {error}")

    ctx.comm.set_errhandler(handler)


class StackLocals:
    """A persistent stack frame of 32-bit locals for MPI-call descriptors.

    Values are written at setup and **read back from simulated stack
    memory** each time they are used, exactly like a compiled program
    reloading spilled locals - so an injected stack flip corrupts the
    arguments of future MPI calls (or the buffer pointers they carry).
    """

    def __init__(
        self,
        image: ProcessImage,
        return_symbol: str,
        fields: Sequence[str],
        padding: int = 640,
    ):
        """``padding`` bytes of never-touched locals are reserved below
        the named fields - real frames are mostly dead space (spilled
        temporaries, over-sized buffers), which is why the paper's stack
        error rate is only ~6-13 % despite every frame being live."""
        self.image = image
        self.fields = tuple(fields)
        frame = image.stack.push_frame(
            return_addr=image.symtab.lookup(return_symbol).addr,
            args=(),
            locals_size=4 * len(self.fields) + max(0, padding),
        )
        self.frame = frame
        # Named fields sit just below EBP; the dead padding lies beneath.
        fields_base = frame.locals_base + max(0, padding)
        self._addr = {
            name: fields_base + 4 * i for i, name in enumerate(self.fields)
        }

    def addr(self, name: str) -> int:
        return self._addr[name]

    def set(self, name: str, value: int) -> None:
        self.image.stack_segment.write_u32(self._addr[name], int(value) & 0xFFFFFFFF)

    def get(self, name: str) -> int:
        return self.image.stack_segment.read_u32(self._addr[name])

    def get_signed(self, name: str) -> int:
        v = self.get(name)
        return v - 0x1_0000_0000 if v & 0x8000_0000 else v


def padding_code(nbytes: int) -> bytes:
    """Never-executed user code (cold paths, unused library routines):
    valid NOP instructions ending in RET, sized to ``nbytes``."""
    nwords = max(2, nbytes // 8)
    return encode(Insn(Op.NOP)) * (nwords - 1) + encode(Insn(Op.RET))


def unrolled_init_source(n_instructions: int) -> str:
    """A straight-line initialization routine of ``n_instructions``
    arithmetic instructions - executed exactly once, it touches a wide
    swath of text, producing the paper's init-phase text working set."""
    lines = ["    movi eax, 1", "    movi ecx, 3"]
    for i in range(max(0, n_instructions - 3)):
        lines.append("    add eax, ecx" if i % 2 == 0 else "    xor eax, ecx")
    lines.append("    ret")
    return "\n".join(lines)


class MPIApplication:
    """Base class for the suite; subclasses define kernels, layout and
    the per-rank ``main`` generator."""

    #: Application name as used in the paper's tables.
    name = "app"
    #: Default parameters, overridden per instance via ``**params``.
    DEFAULTS: dict = {}

    _program_cache: dict[tuple, Program] = {}
    #: Linked, relocated images keyed on (class, params, track_memory):
    #: the pristine templates that every rank of every job copies
    #: (:meth:`ProcessImage.fresh`), each primed once with the decode
    #: table its copies share.  Never returned, so never run.
    _image_cache: dict[tuple, ProcessImage] = {}

    def __init__(self, **params):
        """``params`` override :attr:`DEFAULTS`.  Each value must be an
        instance of its default's type - a bool never passes as an int,
        and an int may stand for a float, which it becomes - so a bad
        value from the CLI, a worker's manifest or Python raises
        ValueError here, before anything is built from it."""
        unknown = set(params) - set(self.DEFAULTS)
        if unknown:
            raise ValueError(f"unknown parameters for {self.name}: {sorted(unknown)}")
        self.params = dict(self.DEFAULTS)
        for key, value in params.items():
            kind = type(self.DEFAULTS[key])
            if kind is float and type(value) is int:
                value = float(value)
            elif not isinstance(value, kind) or (
                isinstance(value, bool) and kind is not bool
            ):
                raise ValueError(
                    f"parameter {key!r} of {self.name} must be "
                    f"{kind.__name__}, not {type(value).__name__}: {value!r}"
                )
            self.params[key] = value

    # ------------------------------------------------------------------
    # subclass surface
    # ------------------------------------------------------------------
    def kernel_sources(self) -> dict[str, str]:
        """Assembly source per kernel function (parameter-independent:
        kernels read sizes from arguments or globals)."""
        raise NotImplementedError

    def add_static_objects(self, linker: Linker) -> None:
        """Contribute data/BSS objects and padding text."""
        raise NotImplementedError

    def main(self, ctx: RankContext) -> Generator:
        raise NotImplementedError

    def propagation_model(self):
        """Declared fault-propagation model for the static analyzer
        (:mod:`repro.staticanalysis.propagation`): which tokens feed the
        output files, which ride message corridors, and which detectors
        tap what.  Suite applications must declare one; the SA2xx audit
        cross-checks it against the linked image and the communication
        skeleton, so it cannot silently drift.
        """
        raise NotImplementedError(
            f"{self.name} declares no propagation model"
        )

    def message_classes(self) -> dict[int, str]:
        """Static payload classification per application message tag, for
        the message-vulnerability map: ``"control"`` (work descriptors and
        other traffic that steers execution), ``"checksummed"`` (user data
        protected by an application-level consistency check), or
        ``"data"`` (unprotected user data, the default for unknown tags).
        """
        return {}

    #: (heap_size, stack_size) for the process image.
    heap_size = 1 << 20
    stack_size = 64 << 10
    #: MPI library link scales (NAMD links far more than Wavetoy).
    mpi_text_scale = 1.0
    mpi_data_scale = 1.0

    # ------------------------------------------------------------------
    # build
    # ------------------------------------------------------------------
    def codegen_key(self) -> tuple:
        """Parameters baked into generated code as immediates (grid
        extents etc.); the assembled-program cache is keyed on these."""
        return ()

    def program(self) -> Program:
        key = (type(self), self.codegen_key())
        prog = MPIApplication._program_cache.get(key)
        if prog is None:
            prog = Program()
            for fname, source in self.kernel_sources().items():
                prog.add(fname, source)
            MPIApplication._program_cache[key] = prog
        return prog

    def _link(self, rank: int, track: bool) -> ProcessImage:
        linker = Linker()
        self.program().add_to_linker(linker)
        self.add_static_objects(linker)
        add_mpi_library(
            linker, text_scale=self.mpi_text_scale, data_scale=self.mpi_data_scale
        )
        image = ProcessImage.from_linker(
            linker,
            rank=rank,
            heap_size=self.heap_size,
            stack_size=self.stack_size,
            track=track,
        )
        self.program().relocate(image)
        return image

    def build_process(
        self, rank: int, nprocs: int, config: JobConfig
    ) -> tuple[ProcessImage, VM]:
        """A fresh ``(image, VM)`` for one rank of one job.  The app is
        linked and its text decoded once per process and configuration;
        every rank image is a copy of that template.  Apps whose params
        do not hash link every rank."""
        key = (type(self), tuple(sorted(self.params.items())), config.track_memory)
        try:
            template = MPIApplication._image_cache.get(key)
        except TypeError:
            image = self._link(rank, config.track_memory)
        else:
            if template is None:
                template = self._link(0, config.track_memory)
                template.decode_table = primed_decode_table(template)
                if len(MPIApplication._image_cache) >= 16:
                    MPIApplication._image_cache.clear()
                MPIApplication._image_cache[key] = template
            image = template.fresh(rank)
        return image, VM(image)
