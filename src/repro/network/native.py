"""Compiled (``kernel="native"``) settle loop over the CSR column mirrors.

Every monitor tick is a collect-then-flush batch, but the ``csr`` engine's
settle loop — heap drain plus edge relaxation — still executes one Python
bytecode at a time.  This module compiles that loop to machine code: a
small C translation unit (embedded below as :data:`_SOURCE`) is built
**at import time of the first use** with whatever C compiler the machine
has (``cc``/``gcc``/``clang``), cached on disk keyed by a hash of the
source, and loaded through :mod:`ctypes`.  No third-party build dependency (numba, Cython) is
required, and none is imported.

Exactness contract.  The C loop is a statement-by-statement translation of
the radius-gated heap engine of :func:`repro.core.search.expand_knn`, with
three properties that make the results *byte-identical*:

* every floating-point expression uses the same operations in the same
  association order as the Python code, compiled with FP contraction
  disabled (``-ffp-contract=off``), so each intermediate double matches
  CPython bit for bit;
* the frontier heap orders entries by ``(distance, node index)`` exactly
  like the ``heapq`` tuples, and since a node is only re-pushed on a
  *strict* improvement no two entries ever compare equal — any conforming
  binary heap therefore pops the identical sequence;
* candidate bookkeeping (min-accumulating offers, the k-th-smallest radius
  recompute, the final ``(distance, object id)`` sort) computes the same
  values from the same sets, and object ids are mapped to dense indices by
  **rank**, so index comparisons preserve id comparisons in tie-breaks.

Fallback contract: the fallback is the ``csr`` engine.  When no compiler
is found, the build fails, numpy is absent, ``REPRO_NATIVE_DISABLE=1`` is
set, or a node or object id does not fit in int64,
:func:`native_expand_batch` serves the whole batch through
:func:`~repro.core.search.expand_knn` over the same snapshot — exactly what ``kernel="csr"`` runs, so outcomes and
work counters are unchanged.  A single search the C kernel cannot serve
exactly (fixed-radius range requests, or a frontier overflowing the
preallocated heap) falls back to the same per-request call.

Column source.  The kernel reads only the numpy mirrors that
:class:`NativeSupport` derives per weights epoch from the snapshot's
columns, so it runs unchanged inside a sharded worker, whose snapshot is
built from its own network replica.
"""

from __future__ import annotations

import ctypes
import os
import shutil
import subprocess
import tempfile
import threading
from hashlib import sha256
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

from repro.exceptions import InvalidQueryError, NodeNotFoundError
from repro.utils import optional_numpy

_INF = float("inf")

#: Shared empty exclusion set, mirroring repro.core.search.
_NO_EXCLUDED: frozenset = frozenset()

#: Environment variable that forces the ``csr`` fallback (CI proves the
#: fallback leg by setting it; users can set it to rule the compiler out).
DISABLE_ENV = "REPRO_NATIVE_DISABLE"

#: Environment variable overriding the on-disk build cache directory.
CACHE_ENV = "REPRO_NATIVE_CACHE"

#: Lazily bound (ExpansionState, SearchOutcome, SearchCounters, expand_knn)
#: from repro.core — imported on the first batch to avoid a module cycle.
_CORE = None

_SOURCE = r"""
/* Native settle loop for the repro road-network monitors.
 *
 * A statement-by-statement translation of the radius-gated heap engine of
 * repro.core.search.expand_knn.  Keep in sync with it; the differential
 * suites compare the outcomes exactly.
 * All doubles are IEEE-754 binary64 with the same association order as the
 * Python expressions; compile with -ffp-contract=off and WITHOUT
 * -ffast-math.
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>

typedef struct { double d; int64_t o; } rk_pair;

static int rk_cmp_pair(const void *pa, const void *pb) {
    const rk_pair *a = (const rk_pair *)pa;
    const rk_pair *b = (const rk_pair *)pb;
    if (a->d < b->d) return -1;
    if (a->d > b->d) return 1;
    if (a->o < b->o) return -1;
    if (a->o > b->o) return 1;
    return 0;
}

/* k-th smallest (1-based) of a[0..n); Hoare quickselect, median-of-three.
 * Returns the same value as Python's sorted(values)[k-1]. */
static double rk_kth_smallest(double *a, int64_t n, int64_t k) {
    int64_t lo = 0, hi = n - 1, target = k - 1;
    while (lo < hi) {
        int64_t mid = lo + (hi - lo) / 2;
        double p0 = a[lo], p1 = a[mid], p2 = a[hi], pivot;
        if (p0 < p1) {
            if (p1 < p2) pivot = p1; else pivot = (p0 < p2) ? p2 : p0;
        } else {
            if (p0 < p2) pivot = p0; else pivot = (p1 < p2) ? p2 : p1;
        }
        int64_t i = lo, j = hi;
        while (i <= j) {
            while (a[i] < pivot) i++;
            while (a[j] > pivot) j--;
            if (i <= j) {
                double t = a[i]; a[i] = a[j]; a[j] = t;
                i++; j--;
            }
        }
        if (target <= j) hi = j;
        else if (target >= i) lo = i;
        else return a[target];
    }
    return a[target];
}

/* Binary heap of (distance, node) with heapq tuple ordering.  Entries are
 * pairwise distinct (strict-improvement pushes), so pop order is the
 * unique ascending order of the live entries. */
static inline int rk_heap_push(double *hd, int64_t *hv, int64_t *n,
                               int64_t cap, double d, int64_t v) {
    if (*n >= cap) return 0;
    int64_t i = (*n)++;
    while (i > 0) {
        int64_t p = (i - 1) >> 1;
        double pd = hd[p];
        int64_t pv = hv[p];
        if (d < pd || (d == pd && v < pv)) { hd[i] = pd; hv[i] = pv; i = p; }
        else break;
    }
    hd[i] = d; hv[i] = v;
    return 1;
}

static inline void rk_heap_pop(double *hd, int64_t *hv, int64_t *n,
                               double *out_d, int64_t *out_v) {
    *out_d = hd[0];
    *out_v = hv[0];
    int64_t m = --(*n);
    double ld = hd[m];
    int64_t lv = hv[m];
    int64_t i = 0;
    for (;;) {
        int64_t c = 2 * i + 1;
        if (c >= m) break;
        if (c + 1 < m &&
            (hd[c + 1] < hd[c] || (hd[c + 1] == hd[c] && hv[c + 1] < hv[c])))
            c++;
        if (hd[c] < ld || (hd[c] == ld && hv[c] < lv)) {
            hd[i] = hd[c]; hv[i] = hv[c]; i = c;
        } else break;
    }
    hd[i] = ld; hv[i] = lv;
}

/* Candidate offer during expansion: min-accumulate; mark the radius dirty
 * on a strict improvement below it (mirrors the Python offer sites). */
#define RK_OFFER(o, total)                                                  \
    do {                                                                    \
        double prev__ = cand_val[(o)];                                      \
        if (prev__ == INFINITY) {                                           \
            cand_val[(o)] = (total);                                        \
            cand_touch[cand_n++] = (o);                                     \
            if ((total) < radius) radius_dirty = 1;                         \
        } else if ((total) < prev__) {                                      \
            cand_val[(o)] = (total);                                        \
            if ((total) < radius) radius_dirty = 1;                         \
        }                                                                   \
    } while (0)

#define RK_RECOMPUTE_RADIUS()                                               \
    do {                                                                    \
        if (cand_n >= k) {                                                  \
            for (int64_t s__ = 0; s__ < cand_n; s__++)                      \
                sel_buf[s__] = cand_val[cand_touch[s__]];                    \
            radius = rk_kth_smallest(sel_buf, cand_n, k);                    \
        } else radius = INFINITY;                                           \
    } while (0)

/* Return codes: 0 ok; 1 frontier overflow (caller falls back to the exact
 * Python heap kernel); 2 allocation failure (same fallback). */
int64_t rk_expand(
    /* graph */
    int64_t n_nodes,
    const int64_t *indptr,
    const int64_t *adj_node,
    const double *adj_weight,
    const int64_t *adj_epos,
    const uint8_t *adj_forward,
    const double *edge_weight,
    const int64_t *edge_start,
    const int64_t *edge_end,
    const uint8_t *edge_oneway,
    /* per-batch object columns (dense edge position -> objects) */
    const int64_t *obj_indptr,
    const int64_t *obj_id,
    const double *obj_frac,
    /* dense index -> caller-visible id maps, so outputs carry ids
     * directly and Python skips the gather */
    const int64_t *node_id_of,
    const int64_t *obj_id_of,
    /* request */
    int64_t k,
    int64_t q_epos,        /* -1: no query_location */
    double q_fraction,
    int64_t source_idx,    /* -1: none */
    const int64_t *pre_idx, const double *pre_dist, int64_t n_pre,
    const int64_t *cand_obj, const double *cand_dist, int64_t n_cand,
    const int64_t *excl_obj, int64_t n_excl,
    const int64_t *bar_node, const int64_t *bar_indptr,
    const int64_t *bar_obj, const double *bar_dist, int64_t n_bar,
    int64_t has_coverage, double coverage_radius,
    /* reusable scratch (caller keeps these initialised: best/tentative
     * +inf, settled 0, tparent -1, cand_val +inf, excl_flag 0, bar_of -1;
     * this function restores every slot it writes before returning) */
    double *best, double *tentative, uint8_t *settled, int64_t *tparent,
    int64_t *touch_nodes,
    double *heap_d, int64_t *heap_v, int64_t heap_cap,
    double *cand_val, int64_t *cand_touch, double *sel_buf,
    uint8_t *excl_flag, int64_t *bar_of,
    /* outputs (node/object slots carry caller-visible ids; root
     * positions index into the settled output, parent id -1 = root) */
    int64_t *out_set_nodes, double *out_set_dist, int64_t *out_set_parent,
    int64_t *out_root_pos,
    int64_t *out_top_obj, double *out_top_dist,
    int64_t *out_counts, double *out_radius)
{
    int64_t rc = 0;
    int64_t touch_n = 0, cand_n = 0, heap_n = 0, n_settled = 0;
    int64_t edges_scanned = 0, objects_considered = 0;
    int64_t heap_pushes = 0, nodes_expanded = 0;
    int radius_dirty = 0;
    double radius;
    int64_t i, slot, oslot;
    double cov_bound = coverage_radius + 1e-9;

    for (i = 0; i < n_excl; i++) excl_flag[excl_obj[i]] = 1;
    for (i = 0; i < n_bar; i++) bar_of[bar_node[i]] = i;

    /* ---- candidate seeding (no radius filter, no dirty flag) ---- */
    for (i = 0; i < n_cand; i++) {
        int64_t o = cand_obj[i];
        if (excl_flag[o]) continue;
        double d = cand_dist[i];
        double prev = cand_val[o];
        if (prev == INFINITY) { cand_val[o] = d; cand_touch[cand_n++] = o; }
        else if (d < prev) cand_val[o] = d;
    }
    RK_RECOMPUTE_RADIUS();
    radius_dirty = 0;

    /* ---- pre-verified nodes settle first ---- */
    for (i = 0; i < n_pre; i++) {
        int64_t idx = pre_idx[i];
        settled[idx] = 1;
        best[idx] = pre_dist[i];
        touch_nodes[touch_n++] = idx;
    }

    /* ---- query-location seeding ---- */
    int64_t seed_v[3];
    double seed_d[3];
    int64_t n_seed = 0;
    if (q_epos >= 0) {
        double weight = edge_weight[q_epos];
        double q_off = q_fraction * weight;
        int oneway = edge_oneway[q_epos];
        for (oslot = obj_indptr[q_epos]; oslot < obj_indptr[q_epos + 1]; oslot++) {
            int64_t o = obj_id[oslot];
            if (excl_flag[o]) continue;
            double f = obj_frac[oslot];
            if (oneway && !(f >= q_fraction)) continue;
            objects_considered++;
            double total = (f - q_fraction) * weight;
            if (total < 0.0) total = -total;
            if (total > radius) continue;
            RK_OFFER(o, total);
        }
        if (oneway) {
            seed_v[n_seed] = edge_end[q_epos];
            seed_d[n_seed++] = weight - q_off;
        } else {
            seed_v[n_seed] = edge_start[q_epos];
            seed_d[n_seed++] = q_off;
            seed_v[n_seed] = edge_end[q_epos];
            seed_d[n_seed++] = weight - q_off;
        }
    }
    if (source_idx >= 0) {
        seed_v[n_seed] = source_idx;
        seed_d[n_seed++] = 0.0;
    }
    for (i = 0; i < n_seed; i++) {
        int64_t v = seed_v[i];
        if (!settled[v]) {
            heap_pushes++;
            double nd = seed_d[i];
            if (nd < radius && nd < tentative[v]) {
                if (tentative[v] == INFINITY) touch_nodes[touch_n++] = v;
                tentative[v] = nd;
                tparent[v] = -1;
                if (!rk_heap_push(heap_d, heap_v, &heap_n, heap_cap, nd, v)) {
                    rc = 1; goto done;
                }
            }
        }
    }

    /* ---- resume seeding from the pre-verified frontier ---- */
    for (i = 0; i < n_pre; i++) {
        int64_t u = pre_idx[i];
        double du = pre_dist[i];
        for (slot = indptr[u]; slot < indptr[u + 1]; slot++) {
            double w = adj_weight[slot];
            int64_t v = adj_node[slot];
            int fully_covered = 0;
            if (has_coverage && settled[v]) {
                double farthest = (du + best[v] + w) / 2.0;
                fully_covered = farthest <= cov_bound;
            }
            if (!fully_covered) {
                edges_scanned++;
                int64_t e = adj_epos[slot];
                int fwd = adj_forward[slot];
                for (oslot = obj_indptr[e]; oslot < obj_indptr[e + 1]; oslot++) {
                    int64_t o = obj_id[oslot];
                    if (excl_flag[o]) continue;
                    objects_considered++;
                    double total = fwd ? du + obj_frac[oslot] * w
                                       : du + (1.0 - obj_frac[oslot]) * w;
                    if (total > radius) continue;
                    RK_OFFER(o, total);
                }
            }
            if (!settled[v]) {
                heap_pushes++;
                double nd = du + w;
                if (nd < radius && nd < tentative[v]) {
                    if (tentative[v] == INFINITY) touch_nodes[touch_n++] = v;
                    tentative[v] = nd;
                    tparent[v] = u;
                    if (!rk_heap_push(heap_d, heap_v, &heap_n, heap_cap, nd, v)) {
                        rc = 1; goto done;
                    }
                }
            }
        }
    }

    /* ---- main settle loop ---- */
    while (heap_n) {
        double d;
        int64_t u;
        rk_heap_pop(heap_d, heap_v, &heap_n, &d, &u);
        if (settled[u] || d > tentative[u]) continue;
        if (radius_dirty) { RK_RECOMPUTE_RADIUS(); radius_dirty = 0; }
        if (d >= radius) break;
        settled[u] = 1;
        best[u] = d;
        out_set_nodes[n_settled++] = u;
        nodes_expanded++;
        int64_t bi = bar_of[u];
        if (bi >= 0) {
            for (oslot = bar_indptr[bi]; oslot < bar_indptr[bi + 1]; oslot++) {
                if (radius_dirty) { RK_RECOMPUTE_RADIUS(); radius_dirty = 0; }
                double total = d + bar_dist[oslot];
                if (total >= radius) break;
                int64_t o = bar_obj[oslot];
                if (!excl_flag[o]) {
                    objects_considered++;
                    double prev = cand_val[o];
                    if (prev == INFINITY) {
                        cand_val[o] = total;
                        cand_touch[cand_n++] = o;
                        radius_dirty = 1;
                    } else if (total < prev) {
                        cand_val[o] = total;
                        radius_dirty = 1;
                    }
                }
            }
            continue;
        }
        for (slot = indptr[u]; slot < indptr[u + 1]; slot++) {
            double w = adj_weight[slot];
            edges_scanned++;
            int64_t e = adj_epos[slot];
            int fwd = adj_forward[slot];
            for (oslot = obj_indptr[e]; oslot < obj_indptr[e + 1]; oslot++) {
                int64_t o = obj_id[oslot];
                if (excl_flag[o]) continue;
                objects_considered++;
                double total = fwd ? d + obj_frac[oslot] * w
                                   : d + (1.0 - obj_frac[oslot]) * w;
                if (total > radius) continue;
                RK_OFFER(o, total);
            }
            int64_t v = adj_node[slot];
            if (!settled[v]) {
                heap_pushes++;
                double nd = d + w;
                if (nd < radius && nd < tentative[v]) {
                    if (tentative[v] == INFINITY) touch_nodes[touch_n++] = v;
                    tentative[v] = nd;
                    tparent[v] = u;
                    if (!rk_heap_push(heap_d, heap_v, &heap_n, heap_cap, nd, v)) {
                        rc = 1; goto done;
                    }
                }
            }
        }
    }

    /* ---- result assembly ---- */
    if (radius_dirty) { RK_RECOMPUTE_RADIUS(); radius_dirty = 0; }
    {
        int64_t n_roots = 0;
        for (i = 0; i < n_settled; i++) {
            int64_t u = out_set_nodes[i];
            int64_t p = tparent[u];
            out_set_dist[i] = best[u];
            out_set_parent[i] = (p >= 0) ? node_id_of[p] : -1;
            if (p < 0) out_root_pos[n_roots++] = i;
            out_set_nodes[i] = node_id_of[u];
        }
        out_counts[6] = n_roots;
    }
    {
        int64_t n_top = 0;
        if (cand_n > 0) {
            rk_pair *pairs = (rk_pair *)malloc((size_t)cand_n * sizeof(rk_pair));
            if (pairs == NULL) { rc = 2; goto done; }
            for (i = 0; i < cand_n; i++) {
                pairs[i].o = cand_touch[i];
                pairs[i].d = cand_val[cand_touch[i]];
            }
            qsort(pairs, (size_t)cand_n, sizeof(rk_pair), rk_cmp_pair);
            n_top = (k < cand_n) ? k : cand_n;
            for (i = 0; i < n_top; i++) {
                out_top_obj[i] = obj_id_of[pairs[i].o];
                out_top_dist[i] = pairs[i].d;
            }
            free(pairs);
        }
        out_counts[0] = nodes_expanded;
        out_counts[1] = edges_scanned;
        out_counts[2] = objects_considered;
        out_counts[3] = heap_pushes;
        out_counts[4] = n_settled;
        out_counts[5] = n_top;
        *out_radius = radius;
    }

done:
    for (i = 0; i < touch_n; i++) {
        int64_t idx = touch_nodes[i];
        best[idx] = INFINITY;
        tentative[idx] = INFINITY;
        settled[idx] = 0;
        tparent[idx] = -1;
    }
    for (i = 0; i < cand_n; i++) cand_val[cand_touch[i]] = INFINITY;
    for (i = 0; i < n_excl; i++) excl_flag[excl_obj[i]] = 0;
    for (i = 0; i < n_bar; i++) bar_of[bar_node[i]] = -1;
    return rc;
}
"""

#: Companion CPython-API helper: materialises one ``SearchOutcome``'s dict
#: and list payloads straight from the kernel's output columns (two dict
#: inserts per settled node, no intermediate lists/tuples).  It holds no
#: float arithmetic — outcome *values* are produced by ``rk_expand`` — so
#: it cannot perturb byte-identity; when Python headers are missing the
#: pure-numpy assembly in :func:`_native_search` serves instead.
_HELPER_SOURCE = r"""
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>

/* Fill node_dist/parent with the settled output (ids already translated
 * by rk_expand), set the expansion roots' parents to None, and return the
 * neighbors list of (object_id, distance) pairs as a new reference. */
PyObject *rk_outcome(
    const int64_t *set_ids, const double *set_dist, const int64_t *set_parent,
    const int64_t *root_pos, const int64_t *top_ids, const double *top_dist,
    int64_t n_settled, int64_t n_roots, int64_t n_top,
    PyObject *node_dist, PyObject *parent)
{
    int64_t i;
    for (i = 0; i < n_settled; i++) {
        PyObject *key = PyLong_FromLongLong((long long)set_ids[i]);
        if (key == NULL) return NULL;
        PyObject *val = PyFloat_FromDouble(set_dist[i]);
        if (val == NULL) { Py_DECREF(key); return NULL; }
        int rc = PyDict_SetItem(node_dist, key, val);
        Py_DECREF(val);
        if (rc != 0) { Py_DECREF(key); return NULL; }
        val = PyLong_FromLongLong((long long)set_parent[i]);
        if (val == NULL) { Py_DECREF(key); return NULL; }
        rc = PyDict_SetItem(parent, key, val);
        Py_DECREF(key);
        Py_DECREF(val);
        if (rc != 0) return NULL;
    }
    for (i = 0; i < n_roots; i++) {
        PyObject *key = PyLong_FromLongLong((long long)set_ids[root_pos[i]]);
        if (key == NULL) return NULL;
        int rc = PyDict_SetItem(parent, key, Py_None);
        Py_DECREF(key);
        if (rc != 0) return NULL;
    }
    PyObject *neighbors = PyList_New((Py_ssize_t)n_top);
    if (neighbors == NULL) return NULL;
    for (i = 0; i < n_top; i++) {
        PyObject *obj = PyLong_FromLongLong((long long)top_ids[i]);
        PyObject *dist = (obj == NULL) ? NULL : PyFloat_FromDouble(top_dist[i]);
        PyObject *pair = (dist == NULL) ? NULL : PyTuple_New(2);
        if (pair == NULL) {
            Py_XDECREF(obj);
            Py_XDECREF(dist);
            Py_DECREF(neighbors);
            return NULL;
        }
        PyTuple_SET_ITEM(pair, 0, obj);
        PyTuple_SET_ITEM(pair, 1, dist);
        PyList_SET_ITEM(neighbors, (Py_ssize_t)i, pair);
    }
    return neighbors;
}
"""

_LOCK = threading.Lock()
#: None = not probed yet; False = unavailable; ctypes.CDLL = loaded.
_LIB = None
#: Same tri-state for the CPython-API outcome helper (the bound
#: ``rk_outcome`` function when loaded).
_HELPER = None


def _candidate_cache_dirs() -> List[Path]:
    """Build-cache directories to try, most preferred first."""
    dirs: List[Path] = []
    override = os.environ.get(CACHE_ENV)
    if override:
        dirs.append(Path(override))
    try:
        dirs.append(Path.home() / ".cache" / "repro-native")
    except RuntimeError:  # pragma: no cover - no home directory
        pass
    uid = os.getuid() if hasattr(os, "getuid") else 0
    dirs.append(Path(tempfile.gettempdir()) / f"repro-native-{uid}")
    return dirs


def _find_compiler() -> Optional[str]:
    """Path of the first usable C compiler, or None."""
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return path
    return None


def _compile_library(
    cache_dir: Path, stem: str, source: str, include_dirs: Tuple[str, ...] = ()
) -> Optional[Path]:
    """Compile *source* into ``cache_dir/stem.so`` (atomic)."""
    compiler = _find_compiler()
    if compiler is None:
        return None
    try:
        cache_dir.mkdir(parents=True, exist_ok=True)
        source_path = cache_dir / f"{stem}.c"
        source_path.write_text(source)
        tmp_path = cache_dir / f"{stem}.{os.getpid()}.tmp.so"
        lib_path = cache_dir / f"{stem}.so"
        # -ffp-contract=off keeps every double bit-identical to CPython's
        # (no fused multiply-add); never add -ffast-math here.
        result = subprocess.run(
            [
                compiler, "-O2", "-std=c11", "-fPIC", "-shared",
                "-ffp-contract=off", "-fno-fast-math", "-DNDEBUG",
                *[f"-I{directory}" for directory in include_dirs],
                str(source_path), "-o", str(tmp_path), "-lm",
            ],
            capture_output=True,
            timeout=120,
        )
        if result.returncode != 0:
            return None
        os.replace(tmp_path, lib_path)
        return lib_path
    except (OSError, subprocess.SubprocessError):  # pragma: no cover - env-specific
        return None


def _load_library():
    """Build (if needed) and dlopen the kernel; False when impossible."""
    if os.environ.get(DISABLE_ENV, "0") == "1":
        return False
    if optional_numpy() is None:  # pragma: no cover - numpy is a test dependency
        return False
    stem = f"repro_native_{sha256(_SOURCE.encode()).hexdigest()[:16]}"
    for cache_dir in _candidate_cache_dirs():
        lib_path = cache_dir / f"{stem}.so"
        if not lib_path.exists():
            built = _compile_library(cache_dir, stem, _SOURCE)
            if built is None:
                continue
            lib_path = built
        try:
            lib = ctypes.CDLL(str(lib_path))
        except OSError:  # pragma: no cover - stale/foreign-arch cache entry
            continue
        fn = lib.rk_expand
        fn.restype = ctypes.c_int64
        # Typed signature: pointers are raw addresses of contiguous numpy
        # arrays passed as plain ints (ctypes skips per-argument
        # introspection when argtypes is set — measurably faster at this
        # call rate, and no wrapper objects are allocated per request).
        i64, f64, ptr = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
        fn.argtypes = (
            [i64] + [ptr] * 9          # graph columns
            + [ptr] * 3                # object columns
            + [ptr] * 2                # node/object id maps
            + [i64, i64, f64, i64]     # k, q_epos, q_fraction, source_idx
            + [ptr, ptr, i64]          # preverified
            + [ptr, ptr, i64]          # candidates
            + [ptr, i64]               # excluded
            + [ptr, ptr, ptr, ptr, i64]  # barriers
            + [i64, f64]               # coverage
            + [ptr] * 7 + [i64]        # scratch + heap_cap
            + [ptr] * 5                # universe scratch
            + [ptr] * 6                # settled/roots/top outputs
            + [ptr, ptr]               # counts, radius
        )
        return lib
    return False


def load_native_library():
    """The loaded compiled kernel (``ctypes.CDLL``) or ``None``.

    The probe runs once per process (building and caching the shared
    library on first use) and is re-attempted only after
    :func:`reset_native_library_cache`.

    Example::

        lib = load_native_library()
        print("compiled backend available:", lib is not None)
    """
    global _LIB
    lib = _LIB
    if lib is None:
        with _LOCK:
            if _LIB is None:
                _LIB = _load_library()
            lib = _LIB
    return None if lib is False else lib


def _load_helper():
    """Build (if needed) and bind ``rk_outcome``; False when impossible."""
    if os.environ.get(DISABLE_ENV, "0") == "1":
        return False
    import sysconfig

    include_dir = sysconfig.get_config_var("INCLUDEPY")
    if not include_dir or not (Path(include_dir) / "Python.h").exists():
        return False
    stem = f"repro_native_py_{sha256(_HELPER_SOURCE.encode()).hexdigest()[:16]}"
    for cache_dir in _candidate_cache_dirs():
        lib_path = cache_dir / f"{stem}.so"
        if not lib_path.exists():
            built = _compile_library(
                cache_dir, stem, _HELPER_SOURCE, include_dirs=(include_dir,)
            )
            if built is None:
                continue
            lib_path = built
        try:
            # PyDLL: calls keep the GIL held, as the C-API requires.
            helper = ctypes.PyDLL(str(lib_path))
        except OSError:  # pragma: no cover - stale/foreign-arch cache entry
            continue
        fn = helper.rk_outcome
        fn.restype = ctypes.py_object
        i64, ptr, obj = ctypes.c_int64, ctypes.c_void_p, ctypes.py_object
        fn.argtypes = [ptr] * 6 + [i64] * 3 + [obj, obj]
        fn._library = helper  # keep the CDLL alive alongside the function
        return fn
    return False


def load_outcome_helper():
    """The bound C-API outcome builder, or ``None`` to assemble in Python.

    Optional on top of :func:`load_native_library`: when CPython's headers
    are not installed the kernel still runs compiled and only the final
    dict/list materialisation stays in (vectorised) Python.

    Example::

        helper = load_outcome_helper()
        print("C-API outcome assembly:", helper is not None)
    """
    global _HELPER
    helper = _HELPER
    if helper is None:
        with _LOCK:
            if _HELPER is None:
                _HELPER = _load_helper()
            helper = _HELPER
    return None if helper is False else helper


def native_available() -> bool:
    """True when the compiled settle loop can serve requests here.

    Example::

        if native_available():
            print("kernel='native' runs compiled")
    """
    return load_native_library() is not None


def reset_native_library_cache() -> None:
    """Forget the load probes so the next call re-checks (tests use this).

    Example::

        reset_native_library_cache()
    """
    global _LIB, _HELPER
    with _LOCK:
        _LIB = None
        _HELPER = None


class NativeSupport:
    """Per-weights-epoch column mirrors + scratch of one CSR snapshot.

    Holds numpy mirrors of the snapshot's numeric columns — the adjacency
    columns the compiled loop reads (plus the dense edge position per
    adjacency slot and the direction/oneway flags) and the incidence
    columns :func:`~repro.core.expansion.influence_spans_vectorized`
    gathers over — and owns the reusable C-side scratch buffers and a
    ``+inf``-filled distance scratch column for the vectorized span path.
    ``usable`` is False when the node ids do not fit in int64.
    ``heap_fallbacks`` counts per-request falls to the ``csr`` path
    (fixed-radius requests and frontier overflows).

    Example::

        support = native_support(csr_snapshot(network))
        print(support.usable)
    """

    __slots__ = (
        "epoch",
        "usable",
        "heap_fallbacks",
        "np_indptr",
        "np_adj_node",
        "np_adj_weight",
        "np_adj_epos",
        "np_adj_forward",
        "np_edge_weight",
        "np_edge_start",
        "np_edge_end",
        "np_edge_oneway",
        "np_inc_indptr",
        "np_inc_edge",
        "np_node_ids",
        "dist_scratch",
        "best",
        "tentative",
        "settled",
        "tparent",
        "touch_nodes",
        "heap_d",
        "heap_v",
        "heap_cap",
        "bar_of",
        "out_set_nodes",
        "out_set_dist",
        "out_set_parent",
        "out_root_pos",
        "out_counts",
        "out_radius",
        "cand_val",
        "cand_touch",
        "sel_buf",
        "excl_flag",
        "out_top_obj",
        "out_top_dist",
        "obj_cache",
    )

    def __init__(self, csr) -> None:
        """Build the support for *csr* at its current weights epoch."""
        np = optional_numpy()
        self.epoch = csr._weights_epoch
        self.heap_fallbacks = 0
        self.usable = True
        self.obj_cache = None
        self.np_indptr = np.asarray(csr.indptr, dtype=np.int64)
        self.np_adj_node = np.asarray(csr.adj_node, dtype=np.int64)
        self.np_adj_weight = np.asarray(csr.adj_weight, dtype=np.float64)
        self.np_edge_weight = np.asarray(csr.edge_weight, dtype=np.float64)
        self.np_edge_start = np.asarray(csr.edge_start, dtype=np.int64)
        self.np_edge_end = np.asarray(csr.edge_end, dtype=np.int64)
        self.np_inc_indptr = np.asarray(csr.inc_indptr, dtype=np.int64)
        self.np_inc_edge = np.asarray(csr.inc_edge, dtype=np.int64)
        edge_index = csr.edge_index
        count = len(csr.adj_eid)
        self.np_adj_epos = np.fromiter(
            map(edge_index.__getitem__, csr.adj_eid), np.int64, count
        )
        self.np_adj_forward = np.frombuffer(
            bytes(csr.adj_forward), dtype=np.uint8
        ).copy()
        self.np_edge_oneway = np.frombuffer(
            bytes(csr.edge_oneway), dtype=np.uint8
        ).copy()
        n = len(csr.node_ids)
        try:
            self.np_node_ids = np.asarray(csr.node_ids, dtype=np.int64)
        except (OverflowError, TypeError, ValueError):
            # Node ids outside int64 cannot ride through the C outputs.
            self.usable = False
            return
        self.dist_scratch = np.full(n, np.inf, dtype=np.float64)
        self.best = np.full(n, np.inf, dtype=np.float64)
        self.tentative = np.full(n, np.inf, dtype=np.float64)
        self.settled = np.zeros(n, dtype=np.uint8)
        self.tparent = np.full(n, -1, dtype=np.int64)
        self.touch_nodes = np.empty(n, dtype=np.int64)
        self.bar_of = np.full(n, -1, dtype=np.int64)
        self.heap_cap = count + 8
        self.heap_d = np.empty(self.heap_cap, dtype=np.float64)
        self.heap_v = np.empty(self.heap_cap, dtype=np.int64)
        self.out_set_nodes = np.empty(n, dtype=np.int64)
        self.out_set_dist = np.empty(n, dtype=np.float64)
        self.out_set_parent = np.empty(n, dtype=np.int64)
        self.out_root_pos = np.empty(n, dtype=np.int64)
        self.out_counts = np.zeros(7, dtype=np.int64)
        self.out_radius = np.zeros(1, dtype=np.float64)
        self.cand_val = np.empty(0, dtype=np.float64)
        self.cand_touch = np.empty(0, dtype=np.int64)
        self.sel_buf = np.empty(0, dtype=np.float64)
        self.excl_flag = np.empty(0, dtype=np.uint8)
        self.out_top_obj = np.empty(0, dtype=np.int64)
        self.out_top_dist = np.empty(0, dtype=np.float64)

    def ensure_universe(self, size: int) -> None:
        """Grow the object-universe scratch to at least *size* entries."""
        np = optional_numpy()
        if len(self.cand_val) >= size:
            return
        self.cand_val = np.full(size, np.inf, dtype=np.float64)
        self.cand_touch = np.empty(size, dtype=np.int64)
        self.sel_buf = np.empty(size, dtype=np.float64)
        self.excl_flag = np.zeros(size, dtype=np.uint8)
        self.out_top_obj = np.empty(size, dtype=np.int64)
        self.out_top_dist = np.empty(size, dtype=np.float64)


def native_support(csr) -> NativeSupport:
    """The cached :class:`NativeSupport` of *csr* at its weights epoch.

    Rebuilt lazily whenever the snapshot's ``weights_epoch`` moves (one
    rebuild per storm, not one per update) and stored on the snapshot
    itself, where :meth:`~repro.network.csr.CSRGraph.current_native_support`
    reads it without building.

    Example::

        support = native_support(csr_snapshot(network))
        assert support is native_support(csr_snapshot(network))
    """
    support = csr.current_native_support()
    if support is not None:
        return support
    support = NativeSupport(csr)
    csr._native_support = support
    return support


class _ObjectColumns:
    """Per-batch flattened object columns + the dense object-id universe."""

    __slots__ = ("ids", "np_ids", "dense", "obj_indptr", "obj_id", "obj_frac")

    def __init__(self, ids, np_ids, dense, obj_indptr, obj_id, obj_frac) -> None:
        self.ids = ids
        self.np_ids = np_ids
        self.dense = dense
        self.obj_indptr = obj_indptr
        self.obj_id = obj_id
        self.obj_frac = obj_frac


def _request_extra_ids(requests, edge_table) -> set:
    """Object ids referenced by *requests* that are not in the edge table.

    Candidate seeds, exclusion sets and barrier lists may reference objects
    that left the table (e.g. removed this tick); they must still join the
    dense universe so rank order — and therefore distance tie-breaking —
    matches Python's comparisons on the raw ids.
    """
    referenced: set = set()
    for request in requests:
        if request.fixed_radius is not None:
            continue
        candidates = request.candidates
        if candidates:
            referenced.update(pair[0] for pair in candidates)
        if request.excluded_objects:
            referenced.update(request.excluded_objects)
        if request.barrier_candidates:
            for barrier_list in request.barrier_candidates.values():
                referenced.update(pair[0] for pair in barrier_list)
    if not referenced:
        return referenced
    return referenced - edge_table.locations.keys()


def _build_object_columns(csr, edge_table, extras) -> _ObjectColumns:
    """Flatten the edge table into dense-edge-position CSR object columns."""
    np = optional_numpy()
    ids = sorted(edge_table.object_ids())
    if extras:
        ids = sorted(set(ids).union(extras))
    dense = {object_id: index for index, object_id in enumerate(ids)}
    try:
        np_ids = np.asarray(ids, dtype=np.int64) if ids else np.empty(0, np.int64)
    except (OverflowError, TypeError, ValueError):
        # Object ids outside int64 cannot ride through the C outputs;
        # the batch falls back to the csr path.
        np_ids = None
    edge_index = csr.edge_index
    positions: List[int] = []
    dense_ids: List[int] = []
    fractions: List[float] = []
    for object_id, location in edge_table.all_objects():
        position = edge_index.get(location.edge_id)
        if position is None:
            # The object sits on an edge outside this snapshot's topology;
            # the Python kernels never scan it either.
            continue
        positions.append(position)
        dense_ids.append(dense[object_id])
        fractions.append(location.fraction)
    n_edges = len(csr.edge_ids)
    if positions:
        pos_arr = np.asarray(positions, dtype=np.int64)
        order = np.argsort(pos_arr, kind="stable")
        obj_id = np.asarray(dense_ids, dtype=np.int64)[order]
        obj_frac = np.asarray(fractions, dtype=np.float64)[order]
        counts = np.bincount(pos_arr, minlength=n_edges)
        obj_indptr = np.zeros(n_edges + 1, dtype=np.int64)
        np.cumsum(counts, out=obj_indptr[1:])
    else:
        obj_id = np.empty(0, dtype=np.int64)
        obj_frac = np.empty(0, dtype=np.float64)
        obj_indptr = np.zeros(n_edges + 1, dtype=np.int64)
    return _ObjectColumns(ids, np_ids, dense, obj_indptr, obj_id, obj_frac)


def _object_columns(csr, support, edge_table, requests) -> _ObjectColumns:
    """The batch's object columns, cached per edge-table version."""
    extras = _request_extra_ids(requests, edge_table)
    version = edge_table.version
    if not extras:
        cached = support.obj_cache
        if cached is not None and cached[0] == version:
            return cached[1]
        columns = _build_object_columns(csr, edge_table, extras)
        support.obj_cache = (version, columns)
        return columns
    return _build_object_columns(csr, edge_table, extras)


def _ptr(array):
    """Raw data address of a (C-contiguous) numpy array, as a plain int.

    ``rk_expand`` has typed ``argtypes``, so addresses (and every other
    scalar) are passed as Python ints/floats with no per-call ctypes
    wrapper objects.
    """
    return array.ctypes.data


def native_expand_batch(
    network,
    edge_table,
    requests: Iterable,
    csr=None,
    counters=None,
) -> List:
    """Run a batch of expansion requests through the compiled kernel.

    The ``kernel="native"`` engine behind
    :func:`~repro.core.search.expand_knn_batch`: outcomes are returned in
    request order and are byte-identical to the ``csr`` engine, counters
    included.  When the compiled backend is unavailable (no compiler,
    numpy missing, or :data:`DISABLE_ENV` set) or an id does not fit in
    int64, the whole batch runs on the ``csr`` path; individual requests
    the C loop cannot serve exactly (fixed-radius range searches, frontier
    overflow) fall back to the same per-request
    :func:`~repro.core.search.expand_knn` call.

    Example::

        from repro.core.search import ExpansionRequest, expand_knn_batch

        outcomes = expand_knn_batch(
            network, edge_table, [ExpansionRequest(k=2, query_location=loc)],
            kernel="native",
        )
    """
    global _CORE
    if _CORE is None:
        from repro.core.expansion import ExpansionState
        from repro.core.search import SearchCounters, SearchOutcome, expand_knn

        _CORE = (ExpansionState, SearchOutcome, SearchCounters, expand_knn)
    SearchCounters, expand_knn = _CORE[2], _CORE[3]
    from repro.network.csr import csr_snapshot

    if csr is None:
        csr = csr_snapshot(network)
    if counters is None:
        counters = SearchCounters()
    requests = list(requests)
    lib = load_native_library()
    columns = None
    if lib is not None:
        support = native_support(csr)
        if support.usable:
            columns = _object_columns(csr, support, edge_table, requests)
    if columns is None or columns.np_ids is None:
        return [
            _run_heap(expand_knn, network, edge_table, request, csr, counters)
            for request in requests
        ]
    support.ensure_universe(len(columns.ids))
    # Arguments that are identical for every request of the batch are
    # wrapped for ctypes once here; only the per-request block in the
    # middle of the C signature is marshalled inside the loop.
    head = (
        len(csr.node_ids),
        _ptr(support.np_indptr),
        _ptr(support.np_adj_node),
        _ptr(support.np_adj_weight),
        _ptr(support.np_adj_epos),
        _ptr(support.np_adj_forward),
        _ptr(support.np_edge_weight),
        _ptr(support.np_edge_start),
        _ptr(support.np_edge_end),
        _ptr(support.np_edge_oneway),
        _ptr(columns.obj_indptr),
        _ptr(columns.obj_id),
        _ptr(columns.obj_frac),
        _ptr(support.np_node_ids),
        _ptr(columns.np_ids),
    )
    tail = (
        _ptr(support.best),
        _ptr(support.tentative),
        _ptr(support.settled),
        _ptr(support.tparent),
        _ptr(support.touch_nodes),
        _ptr(support.heap_d),
        _ptr(support.heap_v),
        support.heap_cap,
        _ptr(support.cand_val),
        _ptr(support.cand_touch),
        _ptr(support.sel_buf),
        _ptr(support.excl_flag),
        _ptr(support.bar_of),
        _ptr(support.out_set_nodes),
        _ptr(support.out_set_dist),
        _ptr(support.out_set_parent),
        _ptr(support.out_root_pos),
        _ptr(support.out_top_obj),
        _ptr(support.out_top_dist),
        _ptr(support.out_counts),
        _ptr(support.out_radius),
    )
    helper = load_outcome_helper()
    if helper is not None:
        # The helper's output-column addresses are also batch-constant.
        out_ptrs = (
            _ptr(support.out_set_nodes),
            _ptr(support.out_set_dist),
            _ptr(support.out_set_parent),
            _ptr(support.out_root_pos),
            _ptr(support.out_top_obj),
            _ptr(support.out_top_dist),
        )
    else:
        out_ptrs = None
    outcomes = []
    for request in requests:
        if request.fixed_radius is not None:
            # Fixed-radius (range) searches terminate on a pinned bound;
            # serve them through the csr path over the same shared snapshot.
            outcomes.append(_run_heap(expand_knn, network, edge_table, request, csr, counters))
            continue
        outcome = _native_search(
            lib, request, csr, support, columns, head, tail, counters,
            helper, out_ptrs,
        )
        if outcome is None:
            support.heap_fallbacks += 1
            outcomes.append(_run_heap(expand_knn, network, edge_table, request, csr, counters))
        else:
            outcomes.append(outcome)
    return outcomes


def _run_heap(expand_knn, network, edge_table, request, csr, counters):
    """Serve one request through the exact heap kernel (fallback path)."""
    return expand_knn(
        network,
        edge_table,
        request.k,
        query_location=request.query_location,
        source_node=request.source_node,
        preverified=request.preverified,
        preverified_parent=request.preverified_parent,
        candidates=request.candidates,
        barrier_candidates=request.barrier_candidates,
        coverage_radius=request.coverage_radius,
        excluded_objects=request.excluded_objects,
        counters=counters,
        csr=csr,
        fixed_radius=request.fixed_radius,
    )


def _native_search(
    lib, request, csr, support, columns, head, tail, counters,
    helper=None, out_ptrs=None,
):
    """One expansion through the C loop; None when the kernel must fall back.

    Marshals the request into dense arrays, invokes ``rk_expand`` and
    assembles the :class:`~repro.core.search.SearchOutcome` from the C
    outputs.  Raises the same typed errors, at the same points, as the
    Python kernels.
    """
    ExpansionState, SearchOutcome = _CORE[0], _CORE[1]
    np = optional_numpy()

    k = request.k
    query_location = request.query_location
    source_node = request.source_node
    if k < 1:
        raise InvalidQueryError(f"k must be >= 1, got {k}")
    if query_location is None and source_node is None:
        raise InvalidQueryError("expand_knn needs a query_location or a source_node")

    node_index = csr.node_index
    dense = columns.dense

    preverified = request.preverified
    if preverified:
        n_pre = len(preverified)
        try:
            pre_idx = np.fromiter(
                map(node_index.__getitem__, preverified.keys()), np.int64, n_pre
            )
        except KeyError as exc:
            raise NodeNotFoundError(exc.args[0]) from exc
        pre_dist = np.fromiter(preverified.values(), np.float64, n_pre)
        pre_args = (pre_idx.ctypes.data, pre_dist.ctypes.data, n_pre)
    else:
        pre_args = (0, 0, 0)

    candidates = request.candidates or ()
    if candidates:
        cand_obj_list: List[int] = []
        cand_dist_list: List[float] = []
        for object_id, distance in candidates:
            cand_obj_list.append(dense[object_id])
            cand_dist_list.append(distance)
        cand_obj = np.asarray(cand_obj_list, dtype=np.int64)
        cand_dist = np.asarray(cand_dist_list, dtype=np.float64)
        cand_args = (
            cand_obj.ctypes.data, cand_dist.ctypes.data, len(cand_obj_list)
        )
    else:
        cand_args = (0, 0, 0)

    excluded = request.excluded_objects
    if excluded:
        excl_obj = np.fromiter(map(dense.__getitem__, excluded), np.int64, len(excluded))
        excl_args = (excl_obj.ctypes.data, len(excluded))
    else:
        excl_args = (0, 0)

    barriers = request.barrier_candidates
    if barriers:
        bar_node_list: List[int] = []
        bar_indptr_list: List[int] = [0]
        bar_obj_list: List[int] = []
        bar_dist_list: List[float] = []
        for node_id, barrier_list in barriers.items():
            idx = node_index.get(node_id)
            if idx is None:
                # Barriers outside the network never settle (csr parity).
                continue
            bar_node_list.append(idx)
            for object_id, from_node_distance in barrier_list:
                bar_obj_list.append(dense[object_id])
                bar_dist_list.append(from_node_distance)
            bar_indptr_list.append(len(bar_obj_list))
        bar_node = np.asarray(bar_node_list, dtype=np.int64)
        bar_indptr = np.asarray(bar_indptr_list, dtype=np.int64)
        bar_obj = np.asarray(bar_obj_list, dtype=np.int64)
        bar_dist = np.asarray(bar_dist_list, dtype=np.float64)
        bar_args = (
            bar_node.ctypes.data, bar_indptr.ctypes.data,
            bar_obj.ctypes.data, bar_dist.ctypes.data, len(bar_node_list),
        )
    else:
        bar_args = (0, 0, 0, 0, 0)

    if query_location is not None:
        q_args = (
            csr.index_of_edge(query_location.edge_id),
            query_location.fraction,
        )
    else:
        q_args = (-1, 0.0)
    source_idx = (
        csr.index_of_node(source_node) if source_node is not None else -1
    )
    coverage_radius = request.coverage_radius
    if coverage_radius is not None:
        cov_args = (1, coverage_radius)
    else:
        cov_args = (0, 0.0)

    rc = lib.rk_expand(
        *head,
        k,
        *q_args,
        source_idx,
        *pre_args,
        *cand_args,
        *excl_args,
        *bar_args,
        *cov_args,
        *tail,
    )
    if rc != 0:
        return None

    counts = support.out_counts.tolist()
    # Counters land only on success: a fallen-back run re-counts through
    # the heap kernel, so adding here as well would double-bill it.
    counters.searches += 1
    counters.nodes_expanded += counts[0]
    counters.edges_scanned += counts[1]
    counters.objects_considered += counts[2]
    counters.heap_pushes += counts[3]
    n_settled = counts[4]
    n_top = counts[5]

    node_dist: Dict[int, float] = dict(preverified) if preverified else {}
    preverified_parent = request.preverified_parent
    if preverified_parent:
        if preverified_parent.keys() == node_dist.keys():
            # The monitors resume with the parent map of the very state
            # whose distances seeded ``preverified``; a plain copy equals
            # the per-key rebuild below and skips one dict probe per node.
            parent: Dict[int, Optional[int]] = dict(preverified_parent)
        else:
            parent = {
                node_id: preverified_parent.get(node_id) for node_id in node_dist
            }
    else:
        parent = dict.fromkeys(node_dist)
    # The C loop already translated dense indices to caller-visible ids in
    # its outputs; the dict inserts run in settle order, so insertion order
    # (and content) matches the Python kernels exactly.
    if helper is not None:
        neighbors: List[Tuple[int, float]] = helper(
            *out_ptrs, n_settled, counts[6], n_top, node_dist, parent
        )
    else:
        if n_settled:
            names = support.out_set_nodes[:n_settled].tolist()
            node_dist.update(zip(names, support.out_set_dist[:n_settled].tolist()))
            parent.update(zip(names, support.out_set_parent[:n_settled].tolist()))
            for i in support.out_root_pos[: counts[6]].tolist():
                parent[names[i]] = None  # expansion roots have no parent
        if n_top:
            neighbors = list(
                zip(
                    support.out_top_obj[:n_top].tolist(),
                    support.out_top_dist[:n_top].tolist(),
                )
            )
        else:
            neighbors = []
    state = ExpansionState(node_dist=node_dist, parent=parent)
    return SearchOutcome(
        neighbors=neighbors,
        radius=float(support.out_radius[0]),
        state=state,
    )
