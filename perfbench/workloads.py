"""The benchmark's workloads: pools of CLI jobs, why each is there, and what
each must print.

Expected values come from two places. ``Job.paper`` holds stdout fields whose
value the paper states (fold p, 2 for the Heisenberg cover; 4-cycle freeness;
p-cycles exactly for the plus sign; the spectral decomposition; the
criterion-05 degree-bound sizes). ``Job.recorded`` names stdout fields whose
value was recorded from the seed code into recorded.json (girths, cluster
multiplicities, bound sizes), and ``Job.digested`` names fields recorded as a
sha256. Every file ``build`` writes is recorded as a sha256, because the
ROADMAP makes edge lists and fiber maps a byte contract. Fields are checked
one by one, so a report that gains a key still passes.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Job:
    args: tuple[str, ...]
    why: str
    paper: dict = field(default_factory=dict)
    recorded: tuple[str, ...] = ()
    digested: tuple[str, ...] = ()
    exit_code: int = 0

    @property
    def id(self) -> str:
        return " ".join(self.args)

    @property
    def writes_files(self) -> bool:
        return self.args[0] == "build"


@dataclass(frozen=True)
class Workload:
    why: str
    jobs: tuple[Job, ...]


def _signs(sign: str) -> list[str]:
    return ["plus", "minus"] if sign == "both" else [sign]


def verify(p: int, d: int, sign: str, why: str, girth: bool = False) -> Job:
    args = ("verify", "--p", str(p), "--d", str(d), "--sign", sign)
    args += ("--girth",) if girth else ()
    paper: dict = {"passed": True}
    for i, s in enumerate(_signs(sign)):
        paper.update({
            f"constructions.{i}.fold": p,
            f"constructions.{i}.four_cycle_free": True,
            f"constructions.{i}.p_cycle_present": s == "plus",
            f"constructions.{i}.passed": True,
        })
    return Job(args, why, paper, recorded=("constructions.*.girth",) if girth else ())


def verify_heisenberg(d: int, why: str, girth: bool = False) -> Job:
    args = ("verify", "--heisenberg", "--d", str(d)) + (("--girth",) if girth else ())
    paper = {"passed": True, "constructions.0.fold": 2,
             "constructions.0.four_cycle_free": True, "constructions.0.passed": True}
    return Job(args, why, paper, recorded=("constructions.*.girth",) if girth else ())


def build(args: str, why: str) -> Job:
    return Job(tuple(("build " + args).split()), why)


def spectrum(p: int, d: int, sign: str, why: str) -> Job:
    args = ("spectrum", "--p", str(p), "--d", str(d), "--sign", sign)
    paper: dict = {"passed": True}
    for i, _ in enumerate(_signs(sign)):
        paper[f"constructions.{i}.decomposition_ok"] = True
        paper[f"constructions.{i}.cover.n"] = p ** (1 + 2 * d)
    return Job(args, why, paper, recorded=("constructions.*.cover.clusters.*.multiplicity",))


CERTIFY = Workload(
    why="short-cycle certificates in graphs do most of the work; the mechanism "
        "workload for Cayley-aware certificates (ROADMAP item 2)",
    jobs=(
        verify(5, 2, "minus", "exhaustive 5-cycle absence scan on a 3125-vertex cover"),
        verify_heisenberg(8, "all-roots BFS girth on the 512-vertex mod-2 Heisenberg cover",
                          girth=True),
        verify(3, 2, "both", "girth of both 243-vertex covers", girth=True),
        verify(7, 1, "minus", "exhaustive 7-cycle absence scan on a 343-vertex cover"),
        verify_heisenberg(11, "4096-vertex Heisenberg cover: build and 4-cycle scan"),
        Job(("gain", "--p", "3", "--d", "3", "--sign", "minus"),
            "3- and 4-cycle gain sums over C_3^6, and a 0.27 MB report",
            paper={"gains.0.n": 729, "gains.0.four_cycle_sums_nonzero": True},
            recorded=("gains.*.three_cycle_sums_nonzero",), digested=("gains.0.arcs",)),
        Job(("convolve-check", "--d", "4"),
            "convolution lift identities and one 16x16 eigensolve",
            paper={"passed": True, "checks.lift_intertwining.pass": True,
                   "checks.twisted_spectrum.pass": True,
                   "checks.matches_signing_spectrum.pass": True,
                   "checks.convolution_is_cube_adjacency.pass": True}),
    ),
)

EXPORT = Workload(
    why="builds covers and writes them out: Cayley build and group multiplication "
        "dominate (ROADMAP item 4); no certificates and no eigensolves",
    jobs=(
        build("--p 7 --d 2 --sign minus",
              "16807 vertices, 2401 fibers of 7: the largest build here"),
        build("--p 7 --d 2 --sign plus --format json", "the JSON writer through stable_text"),
        build("--heisenberg --d 12", "8192-vertex Heisenberg cover and the hypercube base"),
        build("--p 3 --d 3 --sign both", "degree-12 covers of C_3^6, two signs"),
        build("--p 5 --d 2 --sign both", "two signs at 3125 vertices"),
    ),
)

SPECTRAL = Workload(
    why="the Jacobi eigensolver in spectra dominates (ROADMAP item 3); nearly absent "
        "from certify and absent from export",
    jobs=(
        Job(("bound", "--p", "3", "--dims", "4", "--sign", "minus", "--twist", "1"),
            "the criterion-05 cell: 81x81 twisted solves of the minus cover at twist 1",
            paper={"n": 81, "best.4.size": 37, "best.4.sign": "minus"},
            recorded=("best.*.size",)),
        Job(("bound", "--p", "3", "--dims", "3"),
            "odd dims: the restricted gain graph, 27x27 twisted solves",
            paper={"n": 27}, recorded=("best.*.size",)),
        spectrum(3, 1, "both", "27-vertex cover spectra of both signs and their 9x9 twists"),
        Job(("spectrum", "--heisenberg", "--d", "5"),
            "64-vertex Heisenberg cover spectrum against the cube and its signing",
            paper={"decomposition_ok": True, "cover.n": 64},
            recorded=("cover.clusters.*.multiplicity",)),
    ),
)

WORKLOADS = {"certify": CERTIFY, "export": EXPORT, "spectral": SPECTRAL}
