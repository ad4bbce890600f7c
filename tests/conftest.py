import os
import random
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from regmaps.algebra import IntMatrix, smith_normal_form
from regmaps.permgrp import identity, pmul


def reference_hom(degree, gens, images):
    """The reference walk: generator -> image extended to a homomorphism
    from <gens> by a breadth-first walk of its Cayley graph on permutation
    tuples, with no ``ElementTable``.  The dict element -> image, or None
    if the assignment is inconsistent."""
    ident = identity(degree)
    mapping = {ident: identity(len(images[0]) if images else 0)}
    frontier = [ident]
    while frontier:
        nxt = []
        for x in frontier:
            fx = mapping[x]
            for gen, img in zip(gens, images):
                y = pmul(x, gen)
                fy = pmul(fx, img)
                old = mapping.get(y)
                if old is None:
                    mapping[y] = fy
                    nxt.append(y)
                elif old != fy:
                    return None
        frontier = nxt
    return mapping


@pytest.fixture(scope="session")
def snf_random_cases():
    """1000+ random small integer matrices with their SNFs."""
    rng = random.Random(20240612)
    cases = []
    for _ in range(1000):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = IntMatrix(
            rows, cols, [rng.randint(-30, 30) for _ in range(rows * cols)]
        )
        cases.append((m, smith_normal_form(m)))
    return cases


@pytest.fixture(scope="session")
def run_capped():
    """Run ``python *args`` on the package source with its address space
    capped at 1 GiB, so a run that would fill memory ends in MemoryError
    instead of taking the machine's memory."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
    )

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (2 ** 30, 2 ** 30))

    def run(*args):
        return subprocess.run(
            [sys.executable, *args], cwd=root, env=env, preexec_fn=cap,
            capture_output=True, text=True, timeout=120,
        )

    return run


@pytest.fixture(scope="session")
def corollary_table():
    """The rows of ``verify_corollary_table()``, built once per session."""
    from regmaps.families import verify_corollary_table

    return verify_corollary_table()


@pytest.fixture(scope="session")
def pgl_groups():
    """The PSL/PGL groups the acceptance criteria keep coming back to."""
    from regmaps.constructors import make_field, make_pgl2

    return {
        "psl5": make_pgl2(make_field(5, 1), "psl"),
        "pgl5": make_pgl2(make_field(5, 1), "pgl"),
        "psl7": make_pgl2(make_field(7, 1), "psl"),
        "pgl7": make_pgl2(make_field(7, 1), "pgl"),
        "pgl9": make_pgl2(make_field(3, 2), "pgl"),
        "psl13": make_pgl2(make_field(13, 1), "psl"),
    }


@pytest.fixture(scope="session")
def e9_d4_triple():
    """The order-72 module extension carrying a (2,6,4)* triple."""
    from regmaps.constructors import (
        build_module_extension,
        find_triples,
        make_dihedral,
        search_module_actions,
    )

    d4 = make_dihedral(4)
    for spec in search_module_actions(d4, 3, 2):
        ext = build_module_extension(d4, spec)
        if ext.order() != 72:
            continue
        found = find_triples(ext, 6, 4, limit=2)
        if len(found):
            return found[0]
    raise AssertionError("no E9:D4 with a (2,6,4)* triple")


@pytest.fixture(scope="session")
def triple_pool(pgl_groups, e9_d4_triple):
    """Verified star triples across the constructor zoo."""
    from regmaps.constructors import build_h1, build_h2, build_h3
    from regmaps.mapcore import classify_maps_for_group

    pool = []
    for grp in ("psl5", "pgl5", "pgl7"):
        pool.extend(
            c.representative for c in classify_maps_for_group(pgl_groups[grp])
        )
    pool.append(e9_d4_triple)
    pool.extend(build_h2(j, k) for (j, k) in ((3, 5), (3, 7), (5, 7)))
    pool.extend(build_h3(ell) for ell in (9, 15, 21))
    pool.extend(build_h1(ell) for ell in (4, 6, 10))
    return pool


@pytest.fixture(scope="session")
def group_zoo():
    """1000+ small groups with reproducibly random generators."""
    from regmaps.constructors import (
        build_h2,
        build_h3,
        build_heisenberg,
        build_wreath_c3,
    )
    from regmaps.permgrp import PermGroup

    zoo = []
    for n in range(3, 120):
        rot = tuple((i + 1) % n for i in range(n))
        ref = tuple((-i) % n for i in range(n))
        zoo.append(PermGroup(n, [rot, ref]))
    zoo.extend(build_h2(j, k).group for (j, k) in ((3, 5), (3, 7), (5, 7), (3, 11), (5, 9)))
    zoo.extend(build_h3(ell).group for ell in (3, 9, 15, 21))
    zoo.append(build_heisenberg())
    zoo.append(build_wreath_c3())
    rng = random.Random(1234)
    while len(zoo) < 1050:
        deg = rng.randint(4, 8)
        gens = []
        for _ in range(2):
            images = list(range(deg))
            rng.shuffle(images)
            gens.append(tuple(images))
        g = PermGroup(deg, gens)
        if g.order() <= 500:
            zoo.append(g)
    return zoo
