"""Output checks made apart from the program.

Every reference here is built from the files the program wrote and the
graph file it read, with the benchmark's own parsing, component
labelling and a dense numpy run of the SimRank recurrence.  Nothing is
compared against a stored copy of earlier output.
"""

from collections import defaultdict, deque

import numpy as np

# a dump keeps six decimals: half a unit of the last one, plus rounding slack
TOL = 5e-7 + 1e-12
NEAR_TIE = 1e-12
DENSE_LIMIT = 800  # components up to this many queries and ads get a dense reference
FINAL_CAP = 5
ENGINE_METHODS = ("simple", "evidence", "weighted")


class Report:
    """Named checks and what went wrong in them."""

    def __init__(self):
        self.passed = []
        self.failed = []

    def expect(self, name, problems):
        if problems:
            shown = "; ".join(str(p) for p in problems[:3])
            self.failed.append(f"{name}: {len(problems)} problem(s): {shown}")
        else:
            self.passed.append(name)

    @property
    def ok(self):
        return not self.failed


class Edges:
    """The graph file as the benchmark reads it: labels, endpoints, weights."""

    def __init__(self, path):
        q_index, a_index = {}, {}
        qs, ads, weights = [], [], []
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                query, ad, _imp, _clk, ecr = line.rstrip("\n").split("\t")
                qs.append(q_index.setdefault(query, len(q_index)))
                ads.append(a_index.setdefault(ad, len(a_index)))
                weights.append(float(ecr))
        self.queries = list(q_index)
        self.ads = list(a_index)
        self.q_index = q_index
        self.a_index = a_index
        self.q = np.array(qs, dtype=np.int64)
        self.a = np.array(ads, dtype=np.int64)
        self.w = np.array(weights)
        self.q_ads = [dict() for _ in self.queries]  # query -> {ad: weight}
        self.a_qs = [dict() for _ in self.ads]
        for q, a, w in zip(qs, ads, weights):
            self.q_ads[q][a] = w
            self.a_qs[a][q] = w

    def components(self):
        """Component id of every query and every ad, by union-find."""
        nq = len(self.queries)
        parent = list(range(nq + len(self.ads)))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for q, a in zip(self.q.tolist(), self.a.tolist()):
            rq, ra = find(q), find(nq + a)
            if rq != ra:
                parent[rq] = ra
        _, labels = np.unique([find(x) for x in range(len(parent))], return_inverse=True)
        return labels[:nq], labels[nq:]


def read_dump(path):
    """(method, {(a, b): score text}, degenerate pairs, format problems)."""
    method, pairs, degenerate, problems = "simple", {}, set(), []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("# method="):
                method = line.split("=", 1)[1]
            elif line.startswith("# degenerate\t"):
                _, a, b = line.split("\t")
                degenerate.add((a, b))
            elif line and not line.startswith("#"):
                a, b, text = line.split("\t")
                if (a, b) in pairs:
                    problems.append(f"pair {a},{b} written twice")
                pairs[(a, b)] = text
    return method, pairs, degenerate, problems


# -- the engine recurrence, dense -------------------------------------------


def _spread(weights, structure):
    """exp(-population variance) of each row's edge weights."""
    deg = structure.sum(axis=1)
    mean = weights.sum(axis=1) / deg
    var = ((weights - mean[:, None]) ** 2 * structure).sum(axis=1) / deg
    return np.exp(-var)


def dense_scores(weights, structure, method, decay=0.8, rounds=7, threshold=1e-4):
    """Query-query scores after ``rounds`` rounds of the SimRank recurrence.

    ``weights`` and ``structure`` are dense queries x ads matrices: edge
    weights and 0/1 edge presence.  Each round both sides are refreshed
    from the previous round only: ``c * T (S + I) T'``, averaged over
    the two triangles, diagonal zeroed, entries below the threshold
    dropped, capped at one.  ``simple`` and ``evidence`` average
    uniformly; ``weighted`` uses click-rate shares damped by the
    neighbour's spread; ``evidence`` and ``weighted`` then scale by
    ``1 - 2**-n`` for ``n`` shared ads and drop entries below threshold.
    """
    nq, na = structure.shape
    if method == "weighted":
        tq = weights / weights.sum(axis=1)[:, None] * _spread(weights.T, structure.T)[None, :]
        ta = weights.T / weights.T.sum(axis=1)[:, None] * _spread(weights, structure)[None, :]
    else:
        tq = structure / structure.sum(axis=1)[:, None]
        ta = structure.T / structure.T.sum(axis=1)[:, None]

    def clean(product):
        s = (product + product.T) * 0.5
        np.fill_diagonal(s, 0.0)
        s[s < threshold] = 0.0
        return np.minimum(s, 1.0)

    sq, sa = np.zeros((nq, nq)), np.zeros((na, na))
    eye_q, eye_a = np.eye(nq), np.eye(na)
    for _ in range(rounds):
        sq, sa = (clean((tq @ (sa + eye_a)) @ tq.T * decay),
                  clean((ta @ (sq + eye_q)) @ ta.T * decay))
    return sq


def evidence_factor(ad_sets):
    """1 - 2**-n for n = shared ads, counted on Python sets."""
    n = len(ad_sets)
    shared = np.array([[len(ad_sets[i] & ad_sets[j]) for j in range(n)] for i in range(n)])
    return 1.0 - np.exp2(-shared.astype(float))


def reference_scores(edges, queries, ads, method, removed=frozenset(), evidence=True):
    """Dense reference for the subgraph on ``queries`` x ``ads``."""
    qpos = {q: i for i, q in enumerate(queries)}
    apos = {a: j for j, a in enumerate(ads)}
    weights = np.zeros((len(queries), len(ads)))
    structure = np.zeros_like(weights)
    for q in queries:
        for a, w in edges.q_ads[q].items():
            if (q, a) not in removed:
                weights[qpos[q], apos[a]] = w
                structure[qpos[q], apos[a]] = 1.0
    scores = dense_scores(weights, structure, method)
    if evidence and method in ("evidence", "weighted"):
        sets = [set(np.flatnonzero(row)) for row in structure]
        scores = scores * evidence_factor(sets)
        scores[scores < 1e-4] = 0.0
    return scores


# -- checks -----------------------------------------------------------------


def check_ingest(report, edges, got):
    comp_q, comp_a = edges.components()
    per_comp = np.bincount(comp_q[edges.q])
    want = {
        "queries": len(edges.queries), "ads": len(edges.ads), "edges": len(edges.w),
        "components": int(max(comp_q.max(initial=-1), comp_a.max(initial=-1)) + 1),
        "largest_component_edges": int(per_comp.max()),
    }
    report.expect("ingest-check counts", [
        f"{k}: program {got[k]}, benchmark {v}" for k, v in want.items() if got[k] != v
    ])


def check_table(report, method, scores, threshold=1e-4, rounds=7):
    """The in-memory score table: symmetric, zero diagonal, values in range."""
    m = scores.matrix.tocsr()
    problems = []
    if m.nnz and abs(m - m.T).max() != 0.0:
        problems.append("not symmetric")
    if np.any(m.diagonal() != 0.0):
        problems.append("nonzero diagonal")
    data = m.data
    if method in ENGINE_METHODS:
        if data.size and (data.min() < threshold or data.max() > 1.0):
            problems.append(f"score outside [{threshold}, 1]: {data.min()}..{data.max()}")
        if scores.iterations_run != rounds:
            problems.append(f"rounds {scores.iterations_run} != {rounds}")
    elif method == "pearson":
        if data.size and (np.abs(data).max() > 1.0 or np.any(data == 0.0)):
            problems.append("pearson score zero or outside [-1, 1]")
    elif np.any(data < 1) or np.any(data != np.round(data)):
        problems.append("common-ad score not a positive count")
    report.expect(f"{method}: score table", problems)


def check_dump_format(report, method, edges, dump):
    header, pairs, _, problems = dump
    if header != method:
        problems = problems + [f"header method={header}"]
    for (a, b), text in pairs.items():
        if not a < b:
            problems.append(f"pair {a},{b} not in label order or a self pair")
        if a not in edges.q_index or b not in edges.q_index:
            problems.append(f"unknown label in {a},{b}")
    report.expect(f"{method}: dump format", problems)


def check_engine(report, method, edges, dump):
    """Dump vs a dense run on every small component; no pair across components."""
    _, pairs, _, _ = dump
    comp_q, comp_a = edges.components()
    by_comp = defaultdict(dict)
    crossing = []
    for (a, b), text in pairs.items():
        i, j = edges.q_index[a], edges.q_index[b]
        if comp_q[i] != comp_q[j]:
            crossing.append(f"{a},{b} in different components")
        by_comp[comp_q[i]][(i, j)] = float(text)
    report.expect(f"{method}: scores stay inside components", crossing)

    queries_of = defaultdict(list)
    ads_of = defaultdict(list)
    for q, c in enumerate(comp_q):
        queries_of[c].append(q)
    for a, c in enumerate(comp_a):
        ads_of[c].append(a)
    problems, checked = [], 0
    for c, queries in queries_of.items():
        if not 2 <= len(queries) <= DENSE_LIMIT or len(ads_of[c]) > DENSE_LIMIT:
            continue
        checked += 1
        ref = reference_scores(edges, queries, ads_of[c], method)
        got = np.zeros_like(ref)
        pos = {q: k for k, q in enumerate(queries)}
        for (i, j), v in by_comp[c].items():
            got[pos[i], pos[j]] = got[pos[j], pos[i]] = v
        bad = np.argwhere(np.abs(got - ref) > TOL)
        for r, s in bad[:3]:
            problems.append(
                f"{edges.queries[queries[r]]},{edges.queries[queries[s]]}: "
                f"dump {got[r, s]:.6f}, reference {ref[r, s]:.9f}")
    if checked == 0:
        problems.append("no component small enough to check")
    report.expect(f"{method}: dense reference on {checked} components", problems)


def _pearson(edges, i, j):
    """(r, degenerate, ill-conditioned) straight from the definition."""
    wi, wj = edges.q_ads[i], edges.q_ads[j]
    shared = wi.keys() & wj.keys()
    if not shared:
        return 0.0, False, False
    mi = sum(wi.values()) / len(wi)
    mj = sum(wj.values()) / len(wj)
    num = sum((wi[a] - mi) * (wj[a] - mj) for a in shared)
    di = sum((wi[a] - mi) ** 2 for a in shared)
    dj = sum((wj[a] - mj) ** 2 for a in shared)
    if min(di, dj) < 1e-18:
        return 0.0, min(di, dj) <= 0.0, True
    return max(-1.0, min(1.0, num / (di * dj) ** 0.5)), False, False


def co_clicked(edges):
    pairs = set()
    for qs in edges.a_qs:
        members = sorted(qs)
        for x, i in enumerate(members):
            for j in members[x + 1:]:
                pairs.add((i, j))
    return sorted(pairs)


def check_baseline(report, method, edges, dump, seed, sample=300):
    """Pearson / common-ad scores on a seeded sample of pairs, per pair."""
    _, pairs, degenerate, _ = dump
    co = co_clicked(edges)
    co_labels = {tuple(sorted((edges.queries[i], edges.queries[j]))) for i, j in co}
    problems = [f"{a},{b} scored without a shared ad" for a, b in pairs if (a, b) not in co_labels]
    rng = np.random.default_rng(seed)
    for k in rng.choice(len(co), size=min(sample, len(co)), replace=False):
        i, j = co[k]
        key = tuple(sorted((edges.queries[i], edges.queries[j])))
        got = float(pairs.get(key, "0"))
        if method == "common":
            want = len(edges.q_ads[i].keys() & edges.q_ads[j].keys())
            if got != want:
                problems.append(f"{key}: dump {got}, shared ads {want}")
            continue
        want, is_degenerate, fragile = _pearson(edges, i, j)
        if fragile:
            if key in pairs and abs(got) > 1.0:
                problems.append(f"{key}: {got} outside [-1, 1]")
        elif is_degenerate != (key in degenerate) or abs(got - want) > TOL:
            problems.append(f"{key}: dump {got}, direct {want:.9f}")
    if method == "common" and len(pairs) != len(co):
        problems.append(f"{len(pairs)} pairs dumped, {len(co)} co-clicked pairs")
    report.expect(f"{method}: sampled pairs vs direct computation", problems)


def read_rewrite_file(path):
    lists = defaultdict(list)
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            query, rank, rewrite, text = line.rstrip("\n").split("\t")
            lists[query].append((int(rank), rewrite, text))
    return lists


def check_rewrites(report, method, dump, lists):
    """Each list: ranks 1..n, sorted by score then label, no self, one entry
    per normalized form, scores as in the table, and the top of the row."""
    _, pairs, _, _ = dump
    rows = defaultdict(list)
    for (a, b), text in pairs.items():
        v = float(text)
        if v > 0.0:
            rows[a].append((-v, b, text))
            rows[b].append((-v, a, text))
    problems = []
    for query, entries in lists.items():
        ranks = [r for r, _, _ in entries]
        if ranks != list(range(1, len(entries) + 1)):
            problems.append(f"{query}: ranks {ranks}")
        keys = [(-float(t), rw) for _, rw, t in entries]
        if keys != sorted(keys):
            problems.append(f"{query}: not sorted by score, then label")
        forms = [" ".join(rw.lower().split()) for _, rw, _ in entries]
        if query.lower() in forms or len(set(forms)) != len(forms):
            problems.append(f"{query}: self or repeated form")
        for _, rw, text in entries:
            if pairs.get(tuple(sorted((query, rw)))) != text:
                problems.append(f"{query}->{rw}: score {text} not the table's")
    for query, row in rows.items():
        want = [(b, text) for _, b, text in sorted(row)[:FINAL_CAP]]
        got = [(rw, text) for _, rw, text in lists.get(query, [])]
        if got != want:
            problems.append(f"{query}: list {got[:2]}.. is not the row's top {want[:2]}..")
    extra = set(lists) - set(rows)
    problems += [f"{q}: list without scores" for q in sorted(extra)[:3]]
    report.expect(f"{method}: rewrite lists", problems)


def _reachable(edges, source, removed):
    """Queries and ads reachable from query ``source`` without ``removed``."""
    seen_q, seen_a = {source}, set()
    todo = deque([("q", source)])
    while todo:
        kind, node = todo.popleft()
        if kind == "q":
            for a in edges.q_ads[node]:
                if a not in seen_a and (node, a) not in removed:
                    seen_a.add(a)
                    todo.append(("a", a))
        else:
            for q in edges.a_qs[node]:
                if q not in seen_q and (q, node) not in removed:
                    seen_q.add(q)
                    todo.append(("q", q))
    return seen_q, seen_a


def _desirability(edges, q1, q2):
    ads1 = edges.q_ads[q1]
    total = sum(w for a, w in edges.q_ads[q2].items() if a in ads1)
    return total / len(edges.q_ads[q2])


def check_triples(report, method, edges, triples, accuracy):
    """Removed edges, reachability and each triple's outcome, recomputed.

    ``triples`` holds labels: (q1, q2, q3, [(query, ad), ...]).  A
    triple whose desirabilities or reference scores tie to within
    ``NEAR_TIE`` may go either way.
    """
    problems, agreed, undecided = [], 0, 0
    firsts = [t[0] for t in triples]
    if len(set(firsts)) != len(firsts):
        problems.append("q1 repeated across triples")
    for l1, l2, l3, removed_labels in triples:
        q1, q2, q3 = (edges.q_index[x] for x in (l1, l2, l3))
        removed = {(edges.q_index[q], edges.a_index[a]) for q, a in removed_labels}
        if len({q1, q2, q3}) != 3:
            problems.append(f"({l1},{l2},{l3}): repeated query")
        if not (edges.q_ads[q1].keys() & edges.q_ads[q2].keys()
                and edges.q_ads[q1].keys() & edges.q_ads[q3].keys()):
            problems.append(f"({l1},{l2},{l3}): candidate shares no ad with q1")
        others = edges.q_ads[q2].keys() | edges.q_ads[q3].keys()
        want = {(q1, a) for a in edges.q_ads[q1] if a in others}
        if removed != want:
            problems.append(f"({l1},{l2},{l3}): removed {len(removed)} edges, expected {len(want)}")
        queries, ads = _reachable(edges, q1, want)
        if q2 not in queries or q3 not in queries:
            problems.append(f"({l1},{l2},{l3}): candidate unreachable after removal")
            continue
        queries, ads = sorted(queries), sorted(ads)
        ref = reference_scores(edges, queries, ads, method, removed=want, evidence=False)
        pos = {q: k for k, q in enumerate(queries)}
        sim2, sim3 = ref[pos[q1], pos[q2]], ref[pos[q1], pos[q3]]
        des2, des3 = _desirability(edges, q1, q2), _desirability(edges, q1, q3)
        if abs(sim2 - sim3) <= NEAR_TIE or abs(des2 - des3) <= NEAR_TIE:
            undecided += 1
        elif (des2 > des3) == (sim2 > sim3):
            agreed += 1
    got = round(accuracy * len(triples))
    if not agreed <= got <= agreed + undecided:
        problems.append(f"program agrees on {got} triples, reference on {agreed} "
                        f"(+{undecided} near ties)")
    report.expect(f"{method}: desirability triples", problems)
