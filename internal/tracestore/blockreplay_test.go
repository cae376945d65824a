package tracestore

import (
	"bytes"
	"errors"
	"os"
	"testing"

	"repro/internal/faultfs"
	"repro/internal/tracesim"
)

// replayConfigs spans the memory organizations the paper studies:
// flat DRAM, flat fast memory (HBM/MCDRAM latencies), MCDRAM as a
// memory-side cache, and a hybrid point with a smaller cache slice.
func replayConfigs() map[string]tracesim.Config {
	dram := tracesim.DefaultConfig(0)

	hbm := tracesim.DefaultConfig(0)
	hbm.MemLat = hbm.MemLat / 3 // all accesses land in the fast tier

	cacheMode := tracesim.DefaultConfig(4 << 20)

	hybrid := tracesim.DefaultConfig(2 << 20)
	hybrid.MemCacheLat *= 1.2 // a partitioned MCDRAM runs a bit slower

	return map[string]tracesim.Config{
		"dram": dram, "hbm": hbm, "cache": cacheMode, "hybrid": hybrid,
	}
}

// storeWith ingests one stream and returns the store and its id.
func storeWith(t *testing.T, accs []tracesim.Access) (*Store, string) {
	t.Helper()
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m, _, err := st.Ingest(bytes.NewReader(renderCSV(accs)), 0)
	if err != nil {
		t.Fatal(err)
	}
	return st, m.ID
}

// requireSame demands two replay results agree exactly — counts and
// integer-picosecond time both.
func requireSame(t *testing.T, label string, want, got tracesim.Result) {
	t.Helper()
	if got != want {
		t.Errorf("%s: results diverge\n got %+v\nwant %+v", label, got, want)
	}
}

// scalarReplay is the reference replay: it feeds accs to
// Simulator.Access one reference at a time, passes times, and returns
// the statistics of the last pass.
func scalarReplay(t *testing.T, cfg tracesim.Config, accs []tracesim.Access, passes int) tracesim.Result {
	t.Helper()
	sim, err := tracesim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < passes; p++ {
		if p == passes-1 {
			sim.ResetStats()
		}
		for _, a := range accs {
			sim.Access(a)
		}
	}
	return sim.Result()
}

// blockFeed is the block-granular read side shared by Decoder and
// BlockReader.
type blockFeed interface {
	NextBlock() ([]tracesim.Access, bool)
}

// decodeAll drains a block feed into one slice.
func decodeAll(src blockFeed) []tracesim.Access {
	var out []tracesim.Access
	for {
		b, ok := src.NextBlock()
		if !ok {
			return out
		}
		out = append(out, b...)
	}
}

// TestBlockFedReplayEquivalence is the pinned guarantee behind stored
// trace replay: for every memory organization, replaying a stored trace
// block-fed (Provider.Blocks) into the simulator produces counts and
// replay time identical to feeding the original stream to Access one
// reference at a time.
func TestBlockFedReplayEquivalence(t *testing.T) {
	accs := testAccesses(3*blockAccesses + 1234) // several blocks + tail
	st, id := storeWith(t, accs)
	const passes = 2

	open := func() *Provider {
		p, err := st.Open(id)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { p.Close() })
		return p
	}
	// replay runs one simulator over a freshly opened stored trace.
	replay := func(sim *tracesim.Simulator) tracesim.Result {
		p := open()
		got, err := sim.Run(p.Blocks(), passes)
		if err != nil {
			t.Fatal(err)
		}
		if p.Err() != nil {
			t.Fatal(p.Err())
		}
		return got
	}

	for cfgName, cfg := range replayConfigs() {
		t.Run(cfgName, func(t *testing.T) {
			ref := scalarReplay(t, cfg, accs, passes)

			scalar, err := tracesim.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			requireSame(t, cfgName+"/scalar-blocks", ref, replay(scalar))
		})
	}
}

// damage rewrites a stored trace file in place: keep[0:n] bytes, then
// optionally flip the last byte (CRC corruption instead of
// truncation).
func damage(t *testing.T, st *Store, id string, truncateTo int64, flipLast bool) {
	t.Helper()
	path := st.path(id)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if truncateTo > 0 && truncateTo < int64(len(raw)) {
		raw = raw[:truncateTo]
	}
	if flipLast {
		raw[len(raw)-1] ^= 0xff
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestBlockReplayDamagedTail: a truncated or tail-corrupted stream
// must end block replay cleanly — fewer accesses, an error from Err,
// no panic — whether drained directly or replayed by a simulator.
func TestBlockReplayDamagedTail(t *testing.T) {
	accs := testAccesses(3 * blockAccesses)
	cases := map[string]func(t *testing.T, st *Store, id string, fileLen int64){
		"truncated": func(t *testing.T, st *Store, id string, fileLen int64) {
			damage(t, st, id, fileLen-101, false)
		},
		"corrupt-crc": func(t *testing.T, st *Store, id string, fileLen int64) {
			damage(t, st, id, 0, true)
		},
	}
	for name, breakIt := range cases {
		t.Run(name, func(t *testing.T) {
			st, id := storeWith(t, accs)
			m, _ := st.Get(id)
			breakIt(t, st, id, m.FileBytes)

			p, err := st.Open(id)
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			br := p.Blocks()
			var n int
			for {
				b, ok := br.NextBlock()
				if !ok {
					break
				}
				n += len(b)
			}
			if br.Err() == nil {
				t.Fatal("damaged stream replayed without error")
			}
			if n >= len(accs) {
				t.Fatalf("damaged stream still yielded %d of %d accesses", n, len(accs))
			}

			// Replay through the simulator must surface the damage on
			// the Provider, which is what the replay service checks.
			p2, err := st.Open(id)
			if err != nil {
				t.Fatal(err)
			}
			defer p2.Close()
			sim, err := tracesim.New(tracesim.DefaultConfig(0))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sim.Run(p2.Blocks(), 1); err != nil {
				t.Fatal(err)
			}
			if p2.Err() == nil {
				t.Fatal("replay of damaged stream reported no error")
			}
		})
	}
}

// TestBlockReaderResetMidStream: Reset during a partially consumed
// block must restart cleanly from the first access.
func TestBlockReaderResetMidStream(t *testing.T) {
	accs := testAccesses(2*blockAccesses + 99)
	st, id := storeWith(t, accs)
	p, err := st.Open(id)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	br := p.Blocks()
	if _, ok := br.NextBlock(); !ok {
		t.Fatal(br.Err())
	}
	br.Reset()
	var total int
	for {
		b, ok := br.NextBlock()
		if !ok {
			break
		}
		total += len(b)
	}
	if br.Err() != nil {
		t.Fatal(br.Err())
	}
	if total != len(accs) {
		t.Fatalf("after reset: %d accesses, want %d", total, len(accs))
	}
}

// healOnReset fails the first pass of a replay and lets every later
// one read cleanly: each Reset heals the fault, and the first also
// arms it to fail the pass's first read.
type healOnReset struct {
	*BlockReader
	fault  *faultfs.Fault
	passes int
}

func (h *healOnReset) Reset() {
	h.fault.Reset()
	if h.passes++; h.passes == 1 {
		h.fault.FailAfterReads(0)
	}
	h.BlockReader.Reset()
}

// TestProviderErrorSurvivesReset: a read error in a warm-up pass fails
// the replay even when the measured pass reads cleanly, or a cold
// single pass would be reported as a warmed-up one.
func TestProviderErrorSurvivesReset(t *testing.T) {
	accs := testAccesses(2*blockAccesses + 99)
	fault := faultfs.New(nil)
	st, err := OpenFS(fault, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m, _, err := st.Ingest(bytes.NewReader(renderCSV(accs)), 0)
	if err != nil {
		t.Fatal(err)
	}
	p, err := st.Open(m.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	sim, err := tracesim.New(tracesim.DefaultConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	src := &healOnReset{BlockReader: p.Blocks(), fault: fault}
	if _, err := sim.Run(src, 2); err != nil {
		t.Fatal(err)
	}
	if src.passes != 2 || !errors.Is(p.Err(), faultfs.EIO) {
		t.Fatalf("after %d passes, the first failing: Err() = %v, want the first pass's EIO", src.passes, p.Err())
	}
}

// TestProviderResetAllocatesNothing: rewinding a provider reuses its
// decoder, so a further pass over a drained trace allocates nothing.
func TestProviderResetAllocatesNothing(t *testing.T) {
	st, id := storeWith(t, testAccesses(2*blockAccesses+99))
	p, err := st.Open(id)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	br := p.Blocks()
	pass := func() {
		br.Reset()
		for {
			if _, ok := br.NextBlock(); !ok {
				return
			}
		}
	}
	pass()
	if allocs := testing.AllocsPerRun(5, pass); allocs != 0 {
		t.Fatalf("Reset plus a full pass allocated %.1f times, want 0", allocs)
	}
	if err := br.Err(); err != nil {
		t.Fatal(err)
	}
}
