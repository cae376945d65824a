// Package repro reproduces "Exploring the Performance Benefit of
// Hybrid Memory System on HPC Environments" (Peng et al., IPDPS 2017)
// as a Go library: a calibrated analytic + trace-driven simulator of
// the Intel KNL hybrid memory system (16 GB MCDRAM + 96 GB DDR4), the
// paper's seven workloads implemented functionally, and a benchmark
// harness that regenerates every table and figure of the evaluation.
//
// See ARCHITECTURE.md for the package map and the request path
// through the service, docs/api.md for the HTTP API reference
// (every /v1 endpoint with request/response examples, error codes and
// cache semantics), and docs/lint.md for the machine-enforced
// invariants: cmd/simdlint runs six custom analyzers (canonical keys,
// `guarded by` locking, context flow, hot-path allocation, error
// envelopes, metric registration) as `go vet -vettool`, plus an
// escape-analysis guard pinning every //simd:hotpath function
// allocation-free; the lint package's tests also run a whole-program
// guard that fails on any declaration under internal/ that no binary
// reaches.
//
// # Quickstart
//
// Start the simulation service and ask it questions from a second
// shell:
//
//	go run ./cmd/simd -addr 127.0.0.1:8077 &
//
//	# What does the machine offer?
//	go run ./cmd/simctl workloads
//
//	# One what-if query: STREAM on flat HBM at 8 GB with 128 threads.
//	go run ./cmd/simctl run -workload STREAM -config hbm -size 8GB -threads 128
//
//	# A declarative sweep. The table has one row per size, one column
//	# per memory configuration, and a "best" column naming the winner
//	# — the paper's Fig. 4 question over an arbitrary grid.
//	go run ./cmd/simctl campaign -workloads STREAM,GUPS \
//	    -configs dram,hbm,cache -sizes 2GB,8GB,24GB -threads 64
//
//	# Which memory mode should my application use? The ranked table
//	# quotes every mode against all-DDR and against cache mode; rows
//	# with assignments also say which structures to hbw_malloc.
//	go run ./cmd/simctl advise -workload GUPS -size 8GB -threads 64
//
//	# The same recommendation swept over a size grid: the
//	# "recommended" column shows where the best mode flips.
//	go run ./cmd/simctl campaign -fidelity advise -workloads GUPS \
//	    -sizes 2GB,8GB,32GB -threads 64
//
//	# How many nodes until each node's sub-problem fits HBM? The
//	# scaling table decomposes the global problem over node counts
//	# and marks the §IV-C sweet spot.
//	go run ./cmd/simctl cluster -workload MiniFE -size 120GB \
//	    -threads 64 -nodes 2,4,8,12,16
//
//	# Bring a real memory trace into the system: upload it (NDJSON,
//	# CSV, gzipped, or a cmd/trace -o export), then replay it through
//	# the cache hierarchy under each memory mode.
//	go run ./cmd/trace -pattern chase -footprint 4MB -accesses 400000 -o chase.trc
//	go run ./cmd/simctl trace upload chase.trc
//	go run ./cmd/simctl trace replay -id <id> -config cache
//	go run ./cmd/simctl campaign -fidelity replay -traces <id> \
//	    -configs dram,hbm,cache
//
// Resubmitting any of these is served from the content-addressed
// caches ("(cached)" / "served from campaign cache" in the output) —
// spelling does not matter ("8GB" == "8192MB"). Everything also works
// offline: cmd/advisor runs the identical advisory service in-process
// when no simd is reachable, and examples/service and examples/advise
// drive an in-process server programmatically.
//
// # Performance architecture
//
// The hot path of the repository is trace replay: driving synthetic
// access streams through the functional cache hierarchy to validate
// the analytic models (internal/tracesim, internal/cache). It is
// organised as follows:
//
//   - Block-fed replay. Every access stream is a tracesim.BlockSource
//     handing out blocks as views of a reusable buffer: the synthetic
//     generators fill ~4k-access chunks, and stored traces expose each
//     decoded varint-delta block of tracestore.Decoder in place
//     (Provider.Blocks). Simulator.Run(src, passes) walks each block
//     directly — no staging copy, a direct call per access rather than
//     an interface dispatch. Operations below the L2 go to a miss log
//     that each memory lane drains per block: flat lanes add per-opcode
//     counts, cache lanes run a tight loop of independent tag probes
//     whose host misses overlap. The caches themselves index with shift/mask only (power-of-two
//     geometry), keep tags line-granular in a contiguous array (SoA),
//     unroll the tag scan for the 4/8/16-way geometries, and
//     short-circuit repeated references to the most recently touched
//     line. Run's Results are bit-identical to feeding the stream to
//     Simulator.Access, the scalar reference. Ingest feeding the store
//     is two-tier (allocation-free byte-slice scanners, with a
//     reference-parser fallback pinned equal by differential fuzzing)
//     and encodes blocks on parallel workers behind an in-order
//     writer, keeping the content address byte-identical to serial
//     encoding. simbench's upload_replay workload measures the
//     service-level numbers (see BENCHMARK.json).
//   - Figures are campaign points. Each figure panel of
//     internal/harness is data (a campaign axis plus a table layout)
//     evaluated through one point function: cmd/figures passes
//     service.Executor.RunPoint, and simd passes its cached point
//     path, so a figure cell and a /v1/run of the same point share
//     one point-cache entry.
//
// The compute kernels back the same story: DGEMM uses a
// register-blocked microkernel with a runtime-detected AVX2+FMA
// assembly path (internal/workloads/dgemm/kernel_amd64.s, portable Go
// fallback elsewhere), and the STREAM kernels are unrolled and run on
// a GOMAXPROCS-capped worker pool.
//
// To measure, run
//
//	go test -run=NONE -bench='Functional|Ablation|TraceReplay' -benchmem .
//
// and compare a change against its parent measured on the same
// machine. The repository's end-to-end benchmark is simbench
// (declared in BENCHMARK.json; bash simbench/run.sh runs one
// workload). CI runs a -benchtime=1x smoke of the Go benchmarks so
// regressions fail loudly.
//
// # Service architecture
//
// Everything above is also servable. internal/service wraps the run
// path (core.System -> engine/workload Predict, the harness
// experiments, and a trace-fidelity mode that replays pattern-shaped
// streams through the functional cache hierarchy) behind an HTTP JSON
// API hosted by cmd/simd and spoken to by cmd/simctl or
// service.Client:
//
//   - Content-addressed result cache. Every request resolves to a
//     canonical campaign.Point whose SHA-256 key ignores spelling
//     ("8GB" == "8192MB", "hbm" == "MCDRAM"); outcomes are cached
//     under that key with singleflight semantics, so repeated sweep
//     points are free and concurrent duplicates compute once. Whole
//     campaigns are content-addressed the same way (sorted point
//     keys), so resubmitting a sweep returns the aggregated result
//     without touching a single point (measure cold and warm with
//     bash simbench/run.sh --workload cold_trace_campaign and
//     --workload warm_query_mix).
//   - Bounded job queue. POST /v1/campaigns enqueues onto a fixed
//     worker pool; the pending queue is bounded and overflow returns 429 with a
//     Retry-After computed from observed job service times (the Go
//     client and simctl retry it with capped jittered backoff). Jobs
//     carry deadlines (-job-timeout, or X-Simd-Timeout per request),
//     are cancelled when a waiting client disconnects, and expose
//     polling (GET /v1/jobs/{id}), blocking result fetch (/result)
//     and an NDJSON progress stream (/stream).
//   - Crash safety. With simd -data, accepted jobs are journaled
//     (CRC-framed, fsynced) before the 202 and results persisted
//     content-addressed; a restart reads only the journal,
//     quarantines torn tails, restores finished job IDs and
//     re-enqueues interrupted jobs idempotently. The result store is
//     the caches' second tier, read on demand (internal/journal,
//     proven with the internal/faultfs fault-injection filesystem).
//   - Declarative campaigns. internal/campaign expands workload x
//     config x size-grid x thread grids into deduplicated point sets
//     and aggregates outcomes into per-workload tables; the paper's
//     experiments are servable alongside ("experiments": ["all"]).
//   - Operations. /healthz, Prometheus-text /metrics (request,
//     cache, queue counters), and graceful shutdown that drains HTTP
//     connections and then the job queue.
//
// See examples/service for programmatic submission against an
// in-process server, and bash simbench/run.sh --workload <name> (see
// simbench/README.md) for the serving benchmarks.
//
// # Advisory service
//
// internal/placement generalizes the paper's §VI future work into a
// mode-exploration engine: for an application described as data
// structures (footprint + traffic profile each), Optimizer.Advise
// evaluates all-DDR, cache mode, the optimal flat-mode per-structure
// placement (exhaustive up to 16 structures, greedy beyond) and the
// hybrid BIOS partitions (25/50/75% flat), and returns a ranked
// report with speedups vs all-DDR and vs cache mode, HBM use and
// headroom, and per-structure MEMKIND_HBW/MEMKIND_DEFAULT bindings.
//
// The engine is served as POST /v1/advise (workload form derives the
// structure set from the workload's Table I access pattern; explicit
// structure sets are spelled in JSON) behind its own content-addressed
// singleflight cache, swept over size/thread grids as the campaign
// fidelity "advise", and reachable from the shell via simctl advise
// and cmd/advisor. The service answer is pinned by test to match an
// in-process placement.Optimizer.Advise run exactly. See
// examples/advise and docs/api.md.
//
// # Multi-node service
//
// internal/cluster makes the paper's §IV-C scaling argument
// executable: a global problem decomposes over N identical KNL nodes
// (3D block decomposition, bulk-synchronous iterations with halo
// exchange and allreduce on an Aries-like interconnect), each
// decomposition picks its best per-node memory configuration, and
// with enough nodes the per-node sub-problem drops below the HBM
// capacity — the decomposition sweet spot.
//
// The model is served as POST /v1/cluster (node-count scaling sweeps
// with per-node working set, halo/allreduce overhead and parallel
// efficiency columns, plus the minimum HBM-fitting node count and the
// analytic capacity rule) behind its own content-addressed
// singleflight cache, swept over workload x size x thread x node
// grids as the campaign fidelity "cluster", and reachable from the
// shell via simctl cluster. Decompositions too large for any per-node
// configuration are "no bar" rows, not errors. The service answer is
// pinned by test to match an in-process cluster.New(...).Iterate run
// exactly. See examples/capacity and docs/api.md.
//
// # Durable trace store
//
// The paper's methodology rests on traces collected from instrumented
// applications; internal/tracestore lets a real reference stream enter
// the reproduction and stay. Traces upload as NDJSON or CSV (either
// gzipped) or the store's own binary format, are re-encoded block by
// block — never buffering a whole trace — into a compact on-disk form
// (varint-delta addresses, run-length access kinds, CRC-checked
// blocks, versioned header), and are addressed by the SHA-256 of the
// canonical access stream, so re-uploads — in any format or
// compression — dedupe to the same id without a second copy.
//
// POST /v1/replay feeds a stored trace through the same scaled cache
// hierarchy as the synthetic trace fidelity, behind its own
// content-addressed singleflight cache; the campaign fidelity
// "replay" sweeps stored traces over memory configurations and ranks
// them per trace. Replay results are pinned by test to be
// byte-identical to an in-process scalar tracesim.Simulator run. A
// replay campaign decodes each stored trace once and replays it with
// one memory lane per configuration. cmd/trace -o exports every synthetic
// generator as a seedable fixture; simctl trace
// upload|list|show|replay|delete manages the store from the shell.
// See examples/replay, simbench's upload_replay workload
// (BENCHMARK.json) and docs/api.md.
package repro
