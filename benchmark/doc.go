// Command benchmark is the repository's end-to-end and per-layer
// benchmark of MCCATCH. It generates its inputs from a seed, runs one
// workload for a fixed time, checks every output, and prints each metric
// by name with its unit, then one JSON line with the result.
//
// Run it from the repository root; run.sh builds it from source first:
//
//	bash benchmark/run.sh --workload vec2d-10k --seed 1 --seconds 30 --trace 0
//	cd benchmark && go run . -workload serve-mixed -seed 1 -seconds 30 -trace 1
//
// The last line of standard output is
//
//	{"correct":…, "attempted":…, "failed":…, "metrics":{name:{"value":…, "unit":…}}}
//
// Earlier lines record nproc, GOMAXPROCS, the CPU model and the Go
// version, and print every metric with its unit; a tail latency also
// shows its percentile and sample count.
//
// # Workloads
//
//   - vec2d-10k: data.AxiomDataset(Gaussian, Cardinality, 10000, seed),
//     10,110 points in 2d with a 100- and a 10-point microcluster, under
//     the Euclidean distance on the default R-tree, all cores.
//   - strings-2k: data.LastNames(2000, 20, seed), 2,020 surnames under
//     the Levenshtein distance on the bulk-loaded slim-tree, all cores.
//   - serve-mixed: data.HTTPLike at about 10,000 3-d connections,
//     preloaded into serve.New(serve.Mutable(NewIncrementalVectors(3))).
//
// Every workload reports every end-to-end metric, so the batch workloads
// also serve their own items; serve-mixed has no batch phase. A run's
// phases split --seconds:
//
//  1. Batch phase (vec2d-10k, strings-2k; 50%): one op is BuildVectors
//     or BuildStrings, then Detect, then Close, repeated back to back.
//  2. Open-loop phase (45% of batch runs, 50% of serve-mixed): the
//     workload's items are preloaded into an Incremental with the
//     library's default memtable cap (256, as mccatchd serves) and
//     compacted; then, still in set-up, fresh items freeze two more
//     segments and part-fill the memtable, so the run's ingests cross
//     the third freeze and the serve layer's 4-segment compaction at
//     their middle (at the 256th ingest when there are more than 512).
//     The Incremental is served over loopback HTTP in the process.
//     Requests are sent on a fixed schedule — 500/s for the
//     vector workloads, 150/s for strings — whether or not replies have
//     come back, over nproc connections. Every 50 requests hold
//     exactly 45 scores, 4 ingests and 1 delete in an order drawn from
//     the seed, so every seed reaches the same segment layout; every
//     body is marshaled before the clock starts.
//  3. Detect phase (the rest; one detect on batch runs): with traffic
//     stopped, each detect first ingests and deletes one item, so the
//     live set is unchanged but the epoch moves and GET /v1/detect must
//     recompute.
//
// # End-to-end metrics (--trace 0)
//
//   - setup_s: time before the first timed operation — input generation,
//     one warm-up op (batch workloads), preload, Compact, the warm
//     inserts and server start. Set-up runs five times; this is the
//     median. The serial reference, computed before the set-ups, and the
//     check computations are excluded.
//   - pipeline_p50_ms: median wall time of one op. Batch workloads: the
//     build, detect and close. serve-mixed: one uncached GET /v1/detect,
//     including the JSON reply.
//   - pipeline_tail_ms: the same ops' highest percentile with at least
//     ten samples beyond it, but never below the nearest-rank p90 — so
//     the p90 for the few dozen ops a run makes.
//   - alloc_mb: median heap bytes allocated per op (MemStats.TotalAlloc).
//   - peak_rss_mb: peak resident set size of the process (getrusage),
//     read after the detect phase and before the one-shot check. The
//     set-ups collect the previous one's heap before they start.
//   - auroc: eval.AUROC of the point scores against the planted labels —
//     the batch Result, or serve-mixed's last detect over its live set.
//     Higher is better; a performance change must not move it.
//   - score_p50_ms: median latency of POST /v1/score in the open-loop
//     phase, timed from each request's due time, so a stall counts
//     against every request it delays.
//   - ingest_p50_ms: median latency of POST /v1/ingest, timed the same
//     way; inline freezes and compactions stall it.
//
// The error rate is failed ÷ attempted operations; it is printed and sits
// in the JSON's "failed" and "attempted". An op fails if it returns an
// error, gets a non-200 reply or fails its output check:
//
//   - every batch Result deep-equals a WithWorkers(1) reference computed
//     at start, and contains each planted microcluster exactly;
//   - every score reply carries a non-decreasing count per radius;
//   - every ingest returns one handle, every delete reports true;
//   - all detects of one live set return identical bytes, and the last
//     one's point scores and microclusters equal a one-shot run over the
//     same live items in insertion order.
//
// # Per-layer metrics (--trace 1)
//
// A traced run measures each layer from outside, by timing calls into
// its public functions; nothing inside the program is instrumented. In a
// batch workload each untraced op is followed by a traced one: the
// R-tree or slim-tree is built through a timing builder and wrapped in a
// forwarding decorator that embeds the tree, so it implements exactly
// the tree's optional index interfaces, and the pipeline runs through
// core.RunPrebuilt with the untraced Result's Params. Strings are
// compared by a Levenshtein that counts its evaluations. serve-mixed
// gets the same breakdown from traced one-shot runs over its final live
// set. In every workload the serving backend is wrapped in a decorator
// that times each engine call. Spans stay in memory and are reported at
// the end; the medians over the traced runs are printed.
//
// A layer a workload bypasses reads 0 there: metric evaluations on the
// vector workloads, and Step III's gel trees where no point has a group
// neighbor (strings-2k's planted outliers are singletons).
//
// Rule: a traced Result must deep-equal the untraced one, and the child
// spans must fit inside the pipeline span; otherwise the op fails. End-
// to-end metrics come only from untraced runs.
//
//   - index.build_full_ms, index.build_gel_ms, index.build_inlier_ms:
//     tree builds over the full set, the Step III group candidates and
//     the Step IV inliers. index.diameter_ms: DiameterEstimate.
//   - join.self_ms: Step II's dual self-join (CountAllMulti);
//     join.self_cpu_ms its process CPU time; join.self_alloc_mb its heap
//     allocation; join.self_speedup a serial CountAllMulti replay on the
//     same tree divided by the parallel call.
//   - join.gel_ms, join.gel_probes, join.gel_hits: Step III's range
//     probes — the window from the first to the last, their count, and
//     the ids they returned. join.bridge_ms, join.bridge_queries: Step
//     IV's bridge join.
//   - core.self_ms: the pipeline span minus all the spans above, i.e.
//     plateaus, MDL, union-find and scoring.
//   - metric.evals_build, _self, _gel, _bridge: Levenshtein evaluations
//     in tree builds and the diameter, the self-join, the gel probes and
//     the bridge join (0 on vector workloads, whose trees use kernels).
//   - pipeline.cpu_util: CPU seconds per wall second over the pipeline
//     span; pipeline.gc_cycles: GC cycles in it; trace.overhead_pct:
//     the traced pipeline's median over the untraced one's, minus 1.
//   - serve.probe_batch_ms, serve.batch_size: one coalesced ProbeBatch
//     call and its size. serve.wait_ms: score p50 minus ProbeBatch p50 —
//     the time a score spends outside the engine. serve.insert_ms_p50,
//     serve.insert_ms_max: Insert calls, whose maximum includes
//     compaction. serve.detect_ms: the engine's Detect. serve.engine_busy:
//     the share of open-loop wall time spent inside backend calls.
//   - loadgen.score_tail_ms: the scores' tail by pipeline_tail_ms' rule
//     (about p99.85 at 500/s). Any scheduling
//     stall of the host moves it, so it is reported here, unbounded.
//   - loadgen.late_p99_ms, loadgen.backlog_max: how late the generator
//     sent requests and the most requests overdue at once, so a stalled
//     generator cannot pass as a fast server.
package main
