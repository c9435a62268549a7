"""Seeded synthetic molecule datasets in the TU-Dortmund flat-file layout.

Two shapes stand in for the real benchmark sets, which are not shipped:

- ``MUTAG``: 188 connected molecules of 10-28 atoms, 7 atom labels, classes
  about 2:1 (125 / 63, as in the real MUTAG).
- ``NCI1``: molecules of 10-60 atoms, 37 atom labels, classes about 2:1, and a
  fixed share of disconnected graphs made of a main molecule plus two to four
  identical copies of one small fragment (salts, counter-ions).

Atom labels are skewed: carbon dominates, then N and O, and the tail labels are
rare.  The class signal is chemical, so it is learnable from the receptive
fields: the majority class ("mutagenic") carries nitro groups (N with two O
leaves) on fused aromatic rings; the minority class has single rings with
halogen, hydroxyl and amine substituents and no nitro group.  Sizes overlap
between classes, so graph size alone does not separate them.

The same ``(shape, seed)`` always yields byte-identical files.
"""

from __future__ import annotations

import os

import numpy as np

C, N, O, F, I, CL, BR = range(7)  # the MUTAG atom alphabet
NITRO_SHARE = 1.0  # majority-class molecules that carry at least one nitro group

SHAPES = {
    # name: (graphs, min atoms, max atoms, atom labels, disconnected share)
    "MUTAG": (188, 10, 28, 7, 0.0),
    "NCI1": (1000, 10, 60, 37, 0.08),
}
MAJORITY_SHARE = 2.0 / 3.0


class _Mol:
    """An undirected labelled graph under construction."""

    def __init__(self):
        self.labels: list[int] = []
        self.edges: list[tuple[int, int]] = []

    def atom(self, label: int, bond_to: int | None = None) -> int:
        self.labels.append(label)
        v = len(self.labels) - 1
        if bond_to is not None:
            self.edges.append((bond_to, v))
        return v

    def ring(self, size: int, label: int = C) -> list[int]:
        first = self.atom(label)
        ring = [first]
        for _ in range(size - 1):
            ring.append(self.atom(label, ring[-1]))
        self.edges.append((ring[-1], first))
        return ring

    def fuse(self, ring: list[int], rng) -> list[int]:
        """Fuse a new six-ring onto a random edge of ``ring``."""
        j = int(rng.integers(len(ring)))
        a, b = ring[j], ring[(j + 1) % len(ring)]
        new = [a]
        for _ in range(4):
            new.append(self.atom(C, new[-1]))
        self.edges.append((new[-1], b))
        return new + [b]

    def absorb(self, other: "_Mol") -> None:
        off = len(self.labels)
        self.labels.extend(other.labels)
        self.edges.extend((u + off, v + off) for u, v in other.edges)

    @property
    def n(self) -> int:
        return len(self.labels)


def _tail_label(rng, num_labels: int) -> int:
    """A rare atom label from the Zipf-like tail beyond the MUTAG alphabet."""
    ranks = np.arange(1, num_labels - 7 + 1, dtype=np.float64)
    p = 1.0 / ranks**1.5
    return 7 + int(rng.choice(len(ranks), p=p / p.sum()))


def _molecule(rng, cls_major: bool, target: int, num_labels: int) -> _Mol:
    """One connected molecule of exactly ``target`` atoms."""
    mol = _Mol()
    rings = [mol.ring(6)]
    fused = int(rng.integers(1, 3)) if cls_major else int(rng.integers(0, 2))
    for _ in range(fused):
        if mol.n + 4 > target - (3 if cls_major else 1):
            break
        rings.append(mol.fuse(rings[-1], rng))
    ring_atoms = [v for r in rings for v in r]
    free = list(dict.fromkeys(ring_atoms))

    def anchor():
        return free[int(rng.integers(len(free)))]

    if cls_major and rng.random() < NITRO_SHARE and mol.n + 3 <= target:
        nitro = mol.atom(N, anchor())
        mol.atom(O, nitro)
        mol.atom(O, nitro)
    while mol.n < target:
        room = target - mol.n
        roll = rng.random()
        if cls_major and room >= 3 and roll < 0.25:
            nitro = mol.atom(N, anchor())
            mol.atom(O, nitro)
            mol.atom(O, nitro)
        elif not cls_major and roll < 0.35:
            mol.atom(int(rng.choice([F, CL, BR, I], p=[0.2, 0.45, 0.25, 0.1])), anchor())
        elif not cls_major and roll < 0.55:
            mol.atom(int(rng.choice([O, N])), anchor())
        elif num_labels > 7 and roll < 0.62:
            mol.atom(_tail_label(rng, num_labels), anchor())
        else:
            # carbon side chain (a small tree) of up to four atoms
            length = min(room, int(rng.integers(1, 5)))
            prev = anchor()
            for _ in range(length):
                prev = mol.atom(C, prev)
                free.append(prev)
    return mol


def _fragment(rng, kind: int, num_labels: int) -> _Mol:
    """A small counter-ion or solvent fragment of two to four atoms."""
    frag = _Mol()
    if kind == 0:  # chain, e.g. ethanol-like
        prev = frag.atom(C)
        for _ in range(int(rng.integers(1, 3))):
            prev = frag.atom(C, prev)
        frag.atom(O, prev)
    elif kind == 1:  # ion with two leaves, e.g. a sulfate-like star
        centre = frag.atom(_tail_label(rng, num_labels) if num_labels > 7 else N)
        frag.atom(O, centre)
        frag.atom(O, centre)
    else:  # diatomic ion
        frag.atom(_tail_label(rng, num_labels) if num_labels > 7 else CL, frag.atom(N))
    return frag


def generate(shape: str, seed: int):
    """Return ``(graphs, num_labels)``; each graph is ``(labels, edges, cls)``
    with 0-based node ids, edges stored once, class 1 the majority class."""
    count, lo, hi, num_labels, disconnected = SHAPES[shape]
    rng = np.random.default_rng([seed, 0x6D6F6C, len(shape)])
    n_major = int(round(count * MAJORITY_SHARE))
    classes = np.array([1] * n_major + [0] * (count - n_major))
    rng.shuffle(classes)
    n_disc = int(round(count * disconnected))
    # disconnected graphs cycle through every (fragment kind, copies) pair, so
    # each seed has the same mix of the costly symmetric cases
    disc = {int(g): r for r, g in enumerate(sorted(rng.choice(count, size=n_disc, replace=False)))}
    graphs = []
    for i, cls in enumerate(classes):
        target = int(rng.integers(lo, hi + 1))
        if i in disc:
            frag = _fragment(rng, disc[i] % 3, num_labels)
            copies = 2 + disc[i] // 3 % 3
            main = max(lo - 2, target - copies * frag.n)
            mol = _molecule(rng, bool(cls), max(8, main), num_labels)
            for _ in range(copies):
                mol.absorb(frag)
        else:
            mol = _molecule(rng, bool(cls), target, num_labels)
        graphs.append((mol.labels, mol.edges, int(cls)))
    # every label of the alphabet occurs, so the loaded alphabet size is fixed
    for label in range(num_labels):
        if not any(label in g[0] for g in graphs):
            labels, edges, cls = graphs[label % len(graphs)]
            graphs[label % len(graphs)] = (labels + [label], edges + [(0, len(labels))], cls)
    return graphs, num_labels


def write_tu(root: str, name: str, graphs) -> str:
    """Write ``graphs`` as TU flat files under ``root/name``; edges both ways,
    1-based global node ids, class labels written as -1 / 1 like MUTAG."""
    base = os.path.join(root, name)
    os.makedirs(base, exist_ok=True)
    a_lines, ind_lines, gl_lines, nl_lines = [], [], [], []
    offset = 0
    for gi, (labels, edges, cls) in enumerate(graphs, start=1):
        for u, v in edges:
            a_lines.append(f"{offset + u + 1}, {offset + v + 1}\n")
            a_lines.append(f"{offset + v + 1}, {offset + u + 1}\n")
        ind_lines.extend(f"{gi}\n" for _ in labels)
        nl_lines.extend(f"{lab}\n" for lab in labels)
        gl_lines.append("1\n" if cls == 1 else "-1\n")
        offset += len(labels)
    for suffix, lines in (("A", a_lines), ("graph_indicator", ind_lines),
                          ("graph_labels", gl_lines), ("node_labels", nl_lines)):
        with open(os.path.join(base, f"{name}_{suffix}.txt"), "w") as fh:
            fh.writelines(lines)
    return base
