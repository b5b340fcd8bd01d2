"""Cohort data model: weighted connectomes, each held as its 3486 edge
strengths in canonical edge order, group-level edge masking into a features
matrix, and a synthetic cohort generator with planted discriminative edges."""

from __future__ import annotations

import io
import json
import math
import mmap
from dataclasses import dataclass, is_dataclass
from functools import cached_property
from operator import itemgetter
from pathlib import Path
from typing import NamedTuple, Sequence, get_type_hints

import numpy as np

from .forked import ForkedBlocks

N_REGIONS = 84
N_EDGES = N_REGIONS * (N_REGIONS - 1) // 2  # 3486
_TRIU = np.triu_indices(N_REGIONS, k=1)  # (rows, cols) of the edges in canonical order

AD = "AD"
CN = "CN"
LABELS = (AD, CN)
SEXES = ("F", "M")

# Desikan-Killiany style parcellation: 34 cortical + 8 subcortical labels per
# hemisphere = 84 regions.
_CORTICAL = [
    "bankssts", "caudalanteriorcingulate", "caudalmiddlefrontal", "cuneus",
    "entorhinal", "fusiform", "inferiorparietal", "inferiortemporal",
    "isthmuscingulate", "lateraloccipital", "lateralorbitofrontal", "lingual",
    "medialorbitofrontal", "middletemporal", "parahippocampal", "paracentral",
    "parsopercularis", "parsorbitalis", "parstriangularis", "pericalcarine",
    "postcentral", "posteriorcingulate", "precentral", "precuneus",
    "rostralanteriorcingulate", "rostralmiddlefrontal", "superiorfrontal",
    "superiorparietal", "superiortemporal", "supramarginal", "frontalpole",
    "temporalpole", "transversetemporal", "insula",
]
_SUBCORTICAL = [
    "thalamus", "caudate", "putamen", "pallidum", "hippocampus", "amygdala",
    "accumbens", "cerebellum",
]


class EdgeId(NamedTuple):
    """Unordered region pair in canonical form (i < j)."""

    i: int
    j: int


def edge(i: int, j: int) -> EdgeId:
    """Build a canonical EdgeId, validating indices and rejecting self-edges.
    Indices must be Python or numpy integers: a bool, float or string is
    rejected, never coerced."""
    for v in (i, j):
        if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
            raise ValueError(f"region index must be an integer, not {v!r}")
    i, j = int(i), int(j)
    if not (0 <= i < N_REGIONS and 0 <= j < N_REGIONS):
        raise ValueError(f"region index out of range: ({i}, {j})")
    if i == j:
        raise ValueError(f"self-edge ({i}, {j})")
    return EdgeId(i, j) if i < j else EdgeId(j, i)


def edges_from_pairs(pairs) -> tuple[EdgeId, ...]:
    """EdgeIds from a JSON list of [i, j] pairs; raises ValueError on any
    other shape, as edge does on any other index."""
    if not isinstance(pairs, list):
        raise ValueError(f"edges must be a list of [i, j] pairs, not {type(pairs).__name__}")
    for pair in pairs:
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise ValueError(f"edge must be a pair [i, j], not {pair!r}")
    return tuple(edge(i, j) for i, j in pairs)


def _checked(value, want, what: str):
    """value, once it is of type want (an int passes for a float, a bool
    never for a number, and a float must be finite); what names the value
    in the error."""
    if (not isinstance(value, (int, float) if want is float else want)
            or isinstance(value, bool) and want not in (bool, object)):
        raise ValueError(f"{what} must be {getattr(want, '__name__', want)}, "
                         f"not {type(value).__name__}")
    try:
        finite = want is not float or math.isfinite(value)
    except OverflowError:  # an int past the largest float
        finite = False
    if not finite:
        raise ValueError(f"{what} must be a finite float")
    return value


def _field(obj, key: str, kind=object):
    """obj[key], once obj is an object holding key with a value of kind."""
    if not isinstance(obj, dict):
        raise ValueError(f"expected an object with key {key!r}, not {type(obj).__name__}")
    if key not in obj:
        raise ValueError(f"missing key {key!r}")
    return _checked(obj[key], kind, key)


def _from_obj(cls, obj, where: str):
    """cls(**obj), once every key names a field of dataclass cls and holds a
    value of its type; a dataclass-typed field is built from its own object
    the same way."""
    if not isinstance(obj, dict):
        raise ValueError(f"{where} must be a JSON object")
    types = get_type_hints(cls)
    unknown = sorted(set(obj) - set(types))
    if unknown:
        raise ValueError(f"unknown {where} key(s): {', '.join(unknown)}")
    args = {}
    for key, value in obj.items():
        want = types[key]
        args[key] = (_from_obj(want, value, key) if is_dataclass(want)
                     else _checked(value, want, f"{where} key {key!r}"))
    return cls(**args)


def canonical_edges() -> list[EdgeId]:
    """All 3486 EdgeIds sorted by (i, j)."""
    return [EdgeId(i, j) for i in range(N_REGIONS) for j in range(i + 1, N_REGIONS)]


def edge_column(i, j):
    """Position of edge (i, j), i < j, in canonical edge order: its column in
    a strengths row. i and j may be integer arrays of matching shape."""
    return i * (2 * N_REGIONS - i - 1) // 2 + j - i - 1


@dataclass(frozen=True)
class RegionAtlas:
    """Fixed 84-region parcellation; maps labels to 0-based indices."""

    names: tuple[str, ...]

    def __post_init__(self):
        names = tuple(self.names)
        if len(names) != N_REGIONS:
            raise ValueError(f"atlas must have {N_REGIONS} regions, got {len(names)}")
        if len(set(names)) != len(names):
            raise ValueError("atlas labels must be unique")
        object.__setattr__(self, "names", names)


def default_atlas() -> RegionAtlas:
    names = []
    for hemi in ("lh", "rh"):
        names.extend(f"{hemi}_{n}" for n in _CORTICAL)
        names.extend(f"{hemi}_{n}" for n in _SUBCORTICAL)
    return RegionAtlas(tuple(names))


def check_connectome(weights) -> np.ndarray:
    """Validate a raw connectivity matrix and return its edge strengths.

    Enforces: square 84x84, finite, nonnegative, diagonal zero (within
    1e-12), symmetric within 1e-9, and every sum w[i, j] + w[j, i] finite.
    Returns the upper triangle of the matrix symmetrized by averaging, as a
    read-only float64 array of the 3486 strengths in canonical edge order.
    """
    w = np.asarray(weights, dtype=float)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValueError(f"non-square matrix: shape {w.shape}")
    if w.shape[0] != N_REGIONS:
        raise ValueError(f"expected {N_REGIONS}x{N_REGIONS} matrix, got {w.shape[0]}x{w.shape[1]}")
    if not np.all(np.isfinite(w)):
        raise ValueError("non-finite weight")
    if np.any(w < 0):
        raise ValueError("negative weight")
    d = np.abs(np.diagonal(w))
    if np.any(d > 1e-12):
        k = int(np.argmax(d))
        raise ValueError(f"nonzero diagonal at region {k}: {w[k, k]}")
    asym = np.abs(w - w.T)
    if np.max(asym) > 1e-9:
        i, j = np.unravel_index(int(np.argmax(asym)), w.shape)
        raise ValueError(f"asymmetric weights at ({i}, {j}): {w[i, j]} vs {w[j, i]}")
    with np.errstate(over="ignore"):
        sums = (w + w.T)[_TRIU]
    finite = np.isfinite(sums)
    if not finite.all():
        c = int(np.argmin(finite))
        i, j = _TRIU[0][c], _TRIU[1][c]
        raise ValueError(f"weights at ({i}, {j}) and ({j}, {i}) overflow when averaged: "
                         f"{w[i, j]} + {w[j, i]}")
    strengths = sums / 2.0
    strengths.flags.writeable = False
    return strengths


@dataclass(frozen=True, eq=False)
class Subject:
    id: str
    strengths: np.ndarray  # (3486,) connectome strengths in canonical edge order
    diagnosis: str
    sex: str
    manufacturer: str

    def __post_init__(self):
        if np.shape(self.strengths) != (N_EDGES,):
            raise ValueError(f"strengths must have shape ({N_EDGES},), "
                             f"got {np.shape(self.strengths)}")
        if self.diagnosis not in LABELS:
            raise ValueError(f"diagnosis must be AD or CN, got {self.diagnosis!r}")
        if self.sex not in SEXES:
            raise ValueError(f"sex must be F or M, got {self.sex!r}")
        if not self.manufacturer:
            raise ValueError("manufacturer must be nonempty")


@dataclass(frozen=True, eq=False)
class Cohort:
    subjects: tuple[Subject, ...]
    atlas: RegionAtlas

    def __post_init__(self):
        subjects = tuple(self.subjects)
        if not subjects:
            raise ValueError("empty cohort")
        ids = [s.id for s in subjects]
        if len(set(ids)) != len(ids):
            dup = next(x for x in ids if ids.count(x) > 1)
            raise ValueError(f"duplicate subject id: {dup!r}")
        object.__setattr__(self, "subjects", subjects)

    def __len__(self) -> int:
        return len(self.subjects)

    def subset(self, ids: Sequence[str]) -> "Cohort":
        """Sub-cohort of the given ids, preserving this cohort's order."""
        keep = set(ids)
        subjects = tuple(s for s in self.subjects if s.id in keep)
        if len(subjects) != len(keep):
            known = {s.id for s in subjects}
            raise ValueError(f"unknown subject id: {next(x for x in ids if x not in known)!r}")
        return Cohort(subjects, self.atlas)


@dataclass(frozen=True)
class EdgeMask:
    """Kept edges in canonical order; at least one."""

    edges: tuple[EdgeId, ...]

    def __post_init__(self):
        object.__setattr__(self, "edges", tuple(self.edges))
        if not self.edges:
            raise ValueError("mask keeps no edges")
        seen = set()
        for e in self.edges:
            if e in seen:
                raise ValueError(f"mask repeats edge [{e.i}, {e.j}]")
            seen.add(e)

    def __len__(self) -> int:
        return len(self.edges)


@dataclass(frozen=True, eq=False)
class Features:
    """Masked strengths of a cohort: row k is the cohort's subject k, column
    c is edges[c]; is_ad is the one label field. X and is_ad are read-only
    copies."""

    X: np.ndarray
    is_ad: np.ndarray
    edges: tuple[EdgeId, ...]

    def __post_init__(self):
        X = np.array(self.X, dtype=float)
        is_ad = np.array(self.is_ad, dtype=bool)
        if X.ndim != 2 or len(X) == 0:
            raise ValueError("empty sample set")
        if is_ad.shape != (len(X),):
            raise ValueError("labels must match the row count")
        if len(self.edges) != X.shape[1]:
            raise ValueError("edge labels do not match the column count")
        if not np.isfinite(X).all():
            k, c = np.argwhere(~np.isfinite(X))[0]
            raise ValueError(f"non-finite strength {X[k, c]} at row {k}, column {c}")
        X.flags.writeable = False
        is_ad.flags.writeable = False
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "is_ad", is_ad)

    def __len__(self) -> int:
        return len(self.X)

    @cached_property
    def ranks(self) -> tuple[np.ndarray, np.ndarray]:
        """(R, V): R[c, k] is the dense rank of X[k, c] among the distinct
        values of column c, in the smallest unsigned dtype that holds it, and
        V[c, r] is the value of rank r in column c (ranks past the column's
        last hold its maximum). Equal values share a rank, so ordering rows by
        rank orders them by value. Built with one sort of the feature-major
        matrix and shared by every model fitted on these features."""
        XT = np.ascontiguousarray(self.X.T)
        order = np.argsort(XT, axis=1)
        sv = np.take_along_axis(XT, order, axis=1)
        dense = np.zeros(sv.shape, dtype=np.intp)
        np.cumsum(sv[:, 1:] != sv[:, :-1], axis=1, out=dense[:, 1:])
        n_ranks = int(dense[:, -1].max()) + 1
        R = np.empty(XT.shape, dtype=np.min_scalar_type(n_ranks - 1))
        np.put_along_axis(R, order, dense, axis=1)
        V = np.repeat(sv[:, -1:], n_ranks, axis=1)
        np.put_along_axis(V, dense, sv, axis=1)
        R.flags.writeable = False
        V.flags.writeable = False
        return R, V


# ---------------------------------------------------------------------------
# Masking and flattening
# ---------------------------------------------------------------------------

def compute_mask(cohort: Cohort, keep_ratio: float) -> EdgeMask:
    """Group-level proportional threshold.

    Edges are ranked by (occurrence desc, mean weight desc, EdgeId asc) where
    occurrence is the fraction of subjects with strictly positive weight; the
    top ceil(keep_ratio * 3486) survive. Edges occurring in no subject are
    never kept, so the mask can be smaller when the cohort is very sparse.
    """
    if not (0 < keep_ratio <= 1):
        raise ValueError(f"keep_ratio must be in (0, 1], got {keep_ratio}")
    vals = np.stack([s.strengths for s in cohort.subjects])
    occurrence = (vals > 0).mean(axis=0)
    mean_w = vals.mean(axis=0)
    n_keep = math.ceil(keep_ratio * N_EDGES)
    ranked = np.lexsort((-mean_w, -occurrence))[:n_keep]  # stable: ties keep EdgeId order
    kept = np.sort(ranked[occurrence[ranked] > 0])
    return EdgeMask(tuple(map(EdgeId, _TRIU[0][kept].tolist(), _TRIU[1][kept].tolist())))


def apply_mask(cohort: Cohort, mask: EdgeMask) -> Features:
    """Each subject's strengths of the mask's edges, one row per subject."""
    cols = edge_column(*np.array(mask.edges).T)
    return Features(
        np.stack([s.strengths for s in cohort.subjects])[:, cols],
        np.array([s.diagnosis == AD for s in cohort.subjects]),
        mask.edges,
    )


# ---------------------------------------------------------------------------
# Synthetic cohorts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PlantedEdge:
    """One edge whose strengths separate the classes at a known threshold.

    direction "low" puts AD strengths below the threshold and CN above;
    "high" is the mirror image. Strengths are drawn uniformly from
    (0.1t, 0.9t) on the low side and (1.1t, 1.9t) on the high side, so a
    gap around the threshold always exists. Note that group masking ranks
    all-positive edges by mean weight, so thresholds should sit comfortably
    above the background mean (~1.13) for planted edges to survive a 30%
    mask.
    """

    edge: EdgeId
    threshold: float
    direction: str = "low"

    def __post_init__(self):
        # the gap needs 0.9t < t < 1.1t, which fails at t <= 0, nan, inf and
        # the smallest subnormals, where the ranges round into each other;
        # strengths reach 1.9 x threshold, and a load sums each one with its
        # mirror cell: that sum must be finite for the saved cohort to load
        t = self.threshold
        if not (0.9 * t < t < 1.1 * t and math.isfinite(2 * (1.9 * t))):
            raise ValueError("planted threshold must be > 0 and at most "
                             f"{np.finfo(float).max / 3.8:.3g}, with 0.9 x threshold < "
                             f"threshold < 1.1 x threshold, got {t}")
        if self.direction not in ("low", "high"):
            raise ValueError(f"direction must be 'low' or 'high', got {self.direction!r}")


def generate_synthetic(
    seed: int,
    n_per_class: int,
    planted: Sequence[PlantedEdge | tuple] = (),
    noise_rate: float = 0.0,
) -> Cohort:
    """Balanced synthetic cohort with optional planted discriminative edges.

    Non-planted strengths are iid log-normal(0, 0.5) shared across classes.
    Labels are flipped independently with probability noise_rate after the
    strengths are drawn, so noisy subjects carry the other class's signature.
    Deterministic in all arguments.
    """
    if n_per_class < 1:
        raise ValueError("n_per_class must be >= 1")
    if not (0 <= noise_rate < 0.5):
        raise ValueError("noise_rate must be in [0, 0.5)")
    planted = [p if isinstance(p, PlantedEdge) else PlantedEdge(*p) for p in planted]
    seen = set()
    for p in planted:
        if p.edge in seen:
            raise ValueError(f"duplicate planted edge {p.edge}")
        seen.add(p.edge)

    rng = np.random.default_rng(seed % 2**32)
    n = 2 * n_per_class
    strengths = rng.lognormal(mean=0.0, sigma=0.5, size=(n, N_EDGES))
    base_ad = np.arange(n) < n_per_class
    for p in planted:
        lo = rng.uniform(0.1 * p.threshold, 0.9 * p.threshold, size=n_per_class)
        hi = rng.uniform(1.1 * p.threshold, 1.9 * p.threshold, size=n_per_class)
        col = edge_column(*edge(*p.edge))
        if p.direction == "low":
            strengths[base_ad, col] = lo
            strengths[~base_ad, col] = hi
        else:
            strengths[base_ad, col] = hi
            strengths[~base_ad, col] = lo
    flips = rng.random(n) < noise_rate
    strengths.flags.writeable = False

    combos = [("F", "MfrA"), ("F", "MfrB"), ("M", "MfrA"), ("M", "MfrB")]
    subjects = []
    within_class = 0
    for k in range(n):
        if k == n_per_class:
            within_class = 0
        is_ad = bool(base_ad[k]) ^ bool(flips[k])
        sex, mfr = combos[within_class % 4]
        subjects.append(Subject(f"s{k:04d}", strengths[k], AD if is_ad else CN, sex, mfr))
        within_class += 1
    return Cohort(tuple(subjects), default_atlas())


# ---------------------------------------------------------------------------
# Manifest I/O
# ---------------------------------------------------------------------------

def read_input(path, parse):
    """parse(text of the file at path): the one reader of every input file.
    A missing file raises ValueError("missing file: <path>"), and a
    ValueError or RecursionError from the read or the parse (a JSON syntax
    error or undecodable bytes among them) raises ValueError("<path>: ...")."""
    try:
        return parse(Path(path).read_text())
    except FileNotFoundError:
        raise ValueError(f"missing file: {path}") from None
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _manifest_records(doc) -> tuple[RegionAtlas, list[dict]]:
    """The atlas and subject records of a manifest, once the manifest is an
    object with a list of string labels and a list of subject objects, each
    holding a string under every subject key."""
    labels = _field(doc, "atlas", list)
    for label in labels:
        _checked(label, str, "atlas label")
    records = _field(doc, "subjects", list)
    for n, rec in enumerate(records):
        who = (repr(rec["id"]) if isinstance(rec, dict) and isinstance(rec.get("id"), str)
               else f"at position {n}")
        try:
            for key in ("id", "diagnosis", "sex", "manufacturer", "matrix"):
                _field(rec, key, str)
        except ValueError as exc:
            raise ValueError(f"subject {who}: {exc}") from None
    return RegionAtlas(tuple(labels)), records


def _matrix_from_csv(text: str) -> np.ndarray:
    return check_connectome(np.loadtxt(io.StringIO(text), delimiter=",", ndmin=2))


def load_cohort(manifest_path) -> Cohort:
    """Load a cohort from a JSON manifest referencing per-subject CSV matrices.

    Manifest format::

        {"atlas": [84 labels],
         "subjects": [{"id": ..., "diagnosis": "AD"|"CN", "sex": "F"|"M",
                       "manufacturer": ..., "matrix": "relative/path.csv"}]}

    Raises ValueError naming the manifest, and the matrix file where one is
    at fault, on any missing, malformed or invalid input; the first fault in
    manifest order is the one raised. Each subject's strengths are a row
    view of one read-only matrix in shared memory, read on every usable
    CPU: forked.ForkedBlocks forks a child per block of the manifest, which
    writes its rows straight into the matrix, and reads here again, in
    manifest order, each block a child did not finish, so a fault is raised
    as reading every file here would raise it.
    """
    base = Path(manifest_path).parent

    def parse(text: str) -> Cohort:
        atlas, records = _manifest_records(json.loads(text))
        n = len(records)
        shared = mmap.mmap(-1, max(n, 1) * N_EDGES * 8)  # mmap rejects a length of 0
        matrix = np.frombuffer(shared, dtype=float, count=n * N_EDGES).reshape(n, N_EDGES)
        row = n  # the row this process read last: once a read raised, the row at fault

        def read(lo: int, hi: int) -> None:
            nonlocal row
            for row in range(lo, hi):
                matrix[row] = read_input(base / records[row]["matrix"], _matrix_from_csv)

        failure = None
        try:
            with ForkedBlocks(n, read, list) as reading:
                reading.join()
        except (ValueError, OSError) as exc:
            failure, records = exc, records[:row]
        # a view of a read-only buffer, so no row can be made writeable again
        strengths = np.frombuffer(memoryview(shared).toreadonly(), dtype=float, count=n * N_EDGES)
        subjects = tuple(Subject(rec["id"], values, rec["diagnosis"], rec["sex"], rec["manufacturer"])
                         for rec, values in zip(records, strengths.reshape(n, N_EDGES)))
        if failure:
            raise failure
        return Cohort(subjects, atlas)

    return read_input(manifest_path, parse)


def save_cohort(cohort: Cohort, out_dir, name: str = "cohort") -> Path:
    """Write a cohort as manifest + per-subject matrices; returns manifest path.

    A subject's CSV holds the bytes np.savetxt(w + w.T, delimiter=",",
    fmt="%.17g") writes for the symmetric matrix of its strengths, but each
    of the 3486 strengths is formatted once and the 84 rows are filled from
    those strings, with the literal 0 on the diagonal."""
    out_dir = Path(out_dir)
    mat_dir = out_dir / "matrices"
    mat_dir.mkdir(parents=True, exist_ok=True)
    # cells[r][c]: the text of cell (r, c) among a subject's strength texts,
    # whose last entry, past the 3486 strengths, is the diagonal's 0
    cells = np.full((N_REGIONS, N_REGIONS), N_EDGES)
    cells[_TRIU] = cells[_TRIU[::-1]] = np.arange(N_EDGES)
    rows = [itemgetter(*row) for row in cells.tolist()]
    recs = []
    for s in cohort.subjects:
        rel = f"matrices/{s.id}.csv"
        # w + w.T adds 0.0 to each strength, which writes a -0.0 strength as 0
        text = ["%.17g" % v for v in (s.strengths + 0.0).tolist()]
        text.append("0")
        (out_dir / rel).write_text("".join([",".join(row(text)) + "\n" for row in rows]))
        recs.append({
            "id": s.id, "diagnosis": s.diagnosis, "sex": s.sex,
            "manufacturer": s.manufacturer, "matrix": rel,
        })
    manifest = out_dir / f"{name}.json"
    manifest.write_text(json.dumps(
        {"atlas": list(cohort.atlas.names), "subjects": recs}, indent=1))
    return manifest


def mask_to_json(mask: EdgeMask) -> str:
    """Canonical-order JSON list of [i, j] pairs."""
    return json.dumps([[e.i, e.j] for e in mask.edges])


def mask_from_json(text: str) -> EdgeMask:
    return EdgeMask(edges_from_pairs(json.loads(text)))
