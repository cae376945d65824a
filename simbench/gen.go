package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strconv"

	"repro/internal/campaign"
	"repro/internal/service"
)

// Every input the program receives is generated here from the run's
// seed. Generators are index-addressable: item i of a stream depends
// only on (seed, stream, i), never on how many items came before, so
// the previous session, the measured traffic and the traced run draw
// disjoint, reproducible slices of one stream.

// rngFor returns the generator of item i of a named stream.
func rngFor(seed int64, stream string, i int) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s|%d", seed, stream, i)
	return rand.New(rand.NewSource(int64(h.Sum64() >> 1)))
}

// perm is a seeded permutation of [0, n): the source of sizes that
// must never repeat within a run.
func perm(seed int64, stream string, n int) []int {
	return rngFor(seed, stream, -1).Perm(n)
}

// --- cold_trace_campaign -------------------------------------------

// The scaled MCDRAM is 16 MiB, reached by a 16 GiB problem (the trace
// fidelity scales footprints 1:1024). Each campaign takes one size
// below it, 1..4 GiB, and one above it, 20 GiB minus the first: the
// two footprints always sum to 20 MiB, so every campaign simulates the
// same number of accesses and op latency does not swing with the seed,
// while the pair straddles the Fig. 2 cliff.
const (
	cliffMiB  = 16384 // the problem size whose scaled footprint fills the scaled MCDRAM
	belowMin  = 1024  // smallest below-cliff size, MiB
	belowSpan = 3072  // below-cliff sizes: [1 GiB, 4 GiB)
	pairSum   = 20480 // below + above, MiB: above is (16 GiB, 19 GiB]
)

// traceCampaigns generates the never-seen trace-fidelity campaigns:
// STREAM (sequential) and GUPS (random) x dram, hbm, cache x two
// sizes = 12 points each. The below-cliff size is drawn from a seeded
// permutation, so no two campaigns of a run share a size and none hits
// the point cache.
type traceCampaigns struct {
	below []int
}

func newTraceCampaigns(seed int64) *traceCampaigns {
	return &traceCampaigns{below: perm(seed, "campaign", belowSpan)}
}

// spec returns campaign i.
func (g *traceCampaigns) spec(i int) campaign.Spec {
	below := belowMin + g.below[i%len(g.below)]
	return campaign.Spec{
		Name:      "simbench-cold-" + strconv.Itoa(i),
		Fidelity:  campaign.FidelityTrace,
		Workloads: []string{"STREAM", "GUPS"},
		Configs:   []string{"dram", "hbm", "cache"},
		Sizes:     []string{mib(below), mib(pairSum - below)},
	}
}

func mib(n int) string { return strconv.Itoa(n) + "MB" }

// --- upload_replay --------------------------------------------------

// Trace bodies: traceAccesses uniform-random line addresses, a quarter
// of them writes. Op i alternates the upload format (NDJSON, CSV) and
// the address span (8 MiB, inside the scaled MCDRAM; 32 MiB, beyond
// it), so every four ops cover all four combinations.
const (
	traceAccesses = 200000
	spanSmall     = 8 << 20
	spanLarge     = 32 << 20
)

// traceBody is one generated upload and its count of writes.
type traceBody struct {
	data   []byte
	writes int
}

// genTrace generates upload i. buf is reused as the body's backing
// store when large enough.
func genTrace(seed int64, i int, buf []byte) traceBody {
	r := rngFor(seed, "trace", i)
	csv := i%2 == 1
	span := spanSmall
	if (i/2)%2 == 1 {
		span = spanLarge
	}
	lines := int64(span / 64)
	var tb traceBody
	b := buf[:0]
	for n := 0; n < traceAccesses; n++ {
		addr := uint64(r.Int63n(lines)) * 64
		kind := byte('R')
		if r.Intn(4) == 0 {
			kind = 'W'
			tb.writes++
		}
		if csv {
			b = strconv.AppendUint(b, addr, 10)
			b = append(b, ',', kind, '\n')
		} else {
			b = append(b, `{"addr": `...)
			b = strconv.AppendUint(b, addr, 10)
			b = append(b, `, "kind": "`...)
			b = append(b, kind, '"', '}', '\n')
		}
	}
	tb.data = b
	return tb
}

// --- warm_query_mix -------------------------------------------------

// Request kinds of the warm query mix.
const (
	kWarmRun = iota
	kColdRun
	kWarmAdvise
	kColdAdvise
	kWarmCluster
	kColdCluster
	kCampaign
	kScrape
	numKinds
)

var kindNames = [numKinds]string{"warm_run", "cold_run", "warm_advise", "cold_advise", "warm_cluster", "cold_cluster", "campaign", "scrape"}

// mixBlock is the exact composition of every 20 requests: 35% warm
// run, 15% cold run, 15% warm advise, 5% cold advise, 10% warm
// cluster, 5% cold cluster, 15% campaign resubmission. Only the order
// within a block is drawn from the seed, so per-request work counts
// are the same for every seed.
var mixBlock = []int{
	kWarmRun, kWarmRun, kWarmRun, kWarmRun, kWarmRun, kWarmRun, kWarmRun,
	kColdRun, kColdRun, kColdRun,
	kWarmAdvise, kWarmAdvise, kWarmAdvise,
	kColdAdvise,
	kWarmCluster, kWarmCluster,
	kColdCluster,
	kCampaign, kCampaign, kCampaign,
}

var (
	mixWorkloads = []string{"STREAM", "GUPS", "XSBench", "MiniFE"}
	mixConfigs   = []string{"dram", "hbm", "cache"}
)

// mixEntry is one scheduled request: its offset from the start of the
// traffic, its kind, and which item of that kind it sends (an index
// into the warm set, or the ordinal of the cold request).
type mixEntry struct {
	At   int64 `json:"at_ns"`
	Kind int   `json:"kind"`
	Item int   `json:"item"`
}

// warmSet is the set of requests the mix repeats: every one is served
// from a cache once the server is warm.
type warmSet struct {
	Runs     []service.RunRequest     `json:"runs"`
	Advises  []service.AdviseRequest  `json:"advises"`
	Clusters []service.ClusterRequest `json:"clusters"`
	Campaign campaign.Spec            `json:"campaign"`
}

func genWarmSet(seed int64) warmSet {
	r := rngFor(seed, "warm", 0)
	gb := func(step, n int) string { return strconv.Itoa(step*(1+r.Intn(n))) + "GB" }
	pick := func(s []string) string { return s[r.Intn(len(s))] }
	var ws warmSet
	seen := map[string]bool{}
	for len(ws.Runs) < 8 {
		req := service.RunRequest{Workload: pick(mixWorkloads), Config: pick(mixConfigs), Size: gb(2, 12), Threads: 64}
		if k := "r" + req.Workload + req.Config + req.Size; !seen[k] {
			seen[k] = true
			ws.Runs = append(ws.Runs, req)
		}
	}
	for len(ws.Advises) < 4 {
		req := service.AdviseRequest{Workload: pick(mixWorkloads), Size: gb(2, 12)}
		if k := "a" + req.Workload + req.Size; !seen[k] {
			seen[k] = true
			ws.Advises = append(ws.Advises, req)
		}
	}
	for len(ws.Clusters) < 3 {
		req := service.ClusterRequest{Workload: pick(mixWorkloads), Size: gb(16, 8)}
		if k := "c" + req.Workload + req.Size; !seen[k] {
			seen[k] = true
			ws.Clusters = append(ws.Clusters, req)
		}
	}
	// The 48-point model campaign: 4 workloads x 3 configs x 4 sizes.
	sizes := map[int]bool{}
	for len(sizes) < 4 {
		sizes[2*(1+r.Intn(14))] = true
	}
	var ss []int
	for s := range sizes {
		ss = append(ss, s)
	}
	sort.Ints(ss)
	ws.Campaign = campaign.Spec{Name: "simbench-warm", Workloads: mixWorkloads, Configs: mixConfigs, Threads: []int{64}}
	for _, s := range ss {
		ws.Campaign.Sizes = append(ws.Campaign.Sizes, strconv.Itoa(s)+"GB")
	}
	return ws
}

// coldSizes hands out never-repeating sizes for one cold request kind:
// whole GiB plus 1..1023 MiB, so a cold size can never equal a warm
// one (the warm set uses whole GiB) or another cold one.
type coldSizes struct{ p []int }

func newColdSizes(seed int64, stream string) coldSizes {
	return coldSizes{p: perm(seed, stream, 24*1023)}
}

func (c coldSizes) size(i int) string {
	v := c.p[i%len(c.p)]
	return mib((1+v/1023)*1024 + 1 + v%1023)
}

// coldInputs generates the cold requests of the mix.
type coldInputs struct {
	seed                         int64
	runSizes, advSizes, cluSizes coldSizes
}

func newColdInputs(seed int64) coldInputs {
	return coldInputs{
		seed:     seed,
		runSizes: newColdSizes(seed, "cold-run-size"),
		advSizes: newColdSizes(seed, "cold-advise-size"),
		cluSizes: newColdSizes(seed, "cold-cluster-size"),
	}
}

func (c coldInputs) run(i int) service.RunRequest {
	r := rngFor(c.seed, "cold-run", i)
	return service.RunRequest{
		Workload: mixWorkloads[r.Intn(len(mixWorkloads))],
		Config:   mixConfigs[r.Intn(len(mixConfigs))],
		Size:     c.runSizes.size(i),
		Threads:  64,
	}
}

func (c coldInputs) advise(i int) service.AdviseRequest {
	r := rngFor(c.seed, "cold-advise", i)
	return service.AdviseRequest{Workload: mixWorkloads[r.Intn(len(mixWorkloads))], Size: c.advSizes.size(i)}
}

func (c coldInputs) cluster(i int) service.ClusterRequest {
	r := rngFor(c.seed, "cold-cluster", i)
	return service.ClusterRequest{Workload: mixWorkloads[r.Intn(len(mixWorkloads))], Size: c.cluSizes.size(i)}
}

// mixSchedule lays out n requests at a fixed arrival rate (requests
// per second), rounded up to whole blocks, plus one /metrics scrape
// per second. Cold items are numbered upwards from next, per kind, in
// schedule order; next is advanced past the items the schedule uses.
func mixSchedule(seed int64, rate float64, n int, next *[numKinds]int, warm warmSet) []mixEntry {
	blocks := (n + len(mixBlock) - 1) / len(mixBlock)
	var out []mixEntry
	for b := 0; b < blocks; b++ {
		r := rngFor(seed, "mix", b)
		order := append([]int(nil), mixBlock...)
		r.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, k := range order {
			e := mixEntry{At: int64(float64(len(out)) / rate * 1e9), Kind: k}
			switch k {
			case kWarmRun:
				e.Item = r.Intn(len(warm.Runs))
			case kWarmAdvise:
				e.Item = r.Intn(len(warm.Advises))
			case kWarmCluster:
				e.Item = r.Intn(len(warm.Clusters))
			case kColdRun, kColdAdvise, kColdCluster:
				e.Item = next[k]
				next[k]++
			}
			out = append(out, e)
		}
	}
	end := out[len(out)-1].At
	for s := int64(1e9); s <= end; s += 1e9 {
		out = append(out, mixEntry{At: s, Kind: kScrape})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}
